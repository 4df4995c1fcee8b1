"""Profiling: the data the MILP formulation and analytical model consume.

The paper's flow (Figure 13) profiles a program at every DVS mode to obtain
per-region execution time ``T_jm`` and energy ``E_jm``, plus edge counts
``G_ij`` and local-path counts ``D_hij`` (which need only one run).  This
package reproduces that flow on the :mod:`repro.simulator` substrate:

* :func:`~repro.profiling.profiler.profile_program` simulates a CFG once,
  timing every mode in lockstep lanes (control flow and memory behaviour
  do not depend on frequency, so one functional pass serves all modes;
  each lane equals a separate run at its mode bit for bit), and assembles
  a :class:`~repro.profiling.profile_data.ProfileData`;
* :func:`~repro.profiling.params_extract.extract_params` reduces a run to
  the four analytical-model parameters of Section 3.2.
"""

from repro.profiling.profile_data import BlockModeData, ProfileData
from repro.profiling.profiler import profile_program
from repro.profiling.params_extract import extract_params

__all__ = ["BlockModeData", "ProfileData", "extract_params", "profile_program"]
