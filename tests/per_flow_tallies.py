"""Reference copies of the loops that tallied conditions 2 and 4 one flow at a time.

``check_condition2`` and ``check_condition4`` walked every flow of their
ensemble: each was offered to ``collect``, a dict that keeps the first flow
of each family, its termination, step counts and final f were counted, and
each landing of condition 4 took its distance to the slice with its own norm.
The checks now count from the ensemble's end-state arrays and offer
``collect`` only the flows they record.  Each flow here is one object per
member, with the trajectory's names for its end state.  tests/test_levelmap.py
checks that the witnesses and modulus tables equal these loops', and that
collect keeps the same trajectories, when both read the same ensemble.
"""

import numpy as np

from morseflow.levelmap import RADII


def condition2_witnesses(flows, a, b, level_tol, collect):
    """The counted witnesses of condition 2 from its band flows."""
    witnesses = {"n_reach": 0, "n_converged": 0, "n_inconclusive": 0, "n_violations": 0,
                 "n_accepted_steps": 0, "n_rejected_steps": 0, "terminations": {}}
    for traj in flows:
        term = traj.termination
        if collect is not None:
            collect.setdefault(f"cond2/{traj.direction}", traj)
        witnesses["terminations"][term] = witnesses["terminations"].get(term, 0) + 1
        witnesses["n_accepted_steps"] += traj.n_accepted
        witnesses["n_rejected_steps"] += traj.n_rejected
        if term == "reach_level":
            witnesses["n_reach"] += 1
        elif term == "converged":
            witnesses["n_converged"] += 1
            limit_val = float(traj.final_f)
            if not (a - level_tol <= limit_val <= b + level_tol):
                witnesses["n_violations"] += 1
        else:
            witnesses["n_inconclusive"] += 1
    return witnesses


def condition4_table(flows, firsts, slice_pts, capture_level, collect):
    """The modulus table of condition 4, and its two counted witnesses, from its probe flows.

    The probes of radius RADII[idx] are ``flows[firsts[idx]:firsts[idx + 1]]``.
    """
    witnesses = {"n_other_converged": 0, "n_inconclusive": 0}
    table = []
    for idx, r in enumerate(RADII):
        n_landed = n_captured = 0
        worst = 0.0
        for traj in flows[firsts[idx]:firsts[idx + 1]]:
            if collect is not None:
                collect.setdefault(f"cond4/r={r:g}", traj)
            if traj.termination == "reach_level":
                n_landed += 1
                d_i = float(np.min(np.linalg.norm(slice_pts - traj.endpoint[None, :], axis=1)))
                worst = max(worst, d_i)
            elif traj.termination == "converged":
                if float(traj.final_f) >= capture_level:
                    n_captured += 1
                else:
                    witnesses["n_other_converged"] += 1
            else:
                witnesses["n_inconclusive"] += 1
        table.append([float(r), float(worst), int(n_landed), int(n_captured)])
    return table, witnesses
