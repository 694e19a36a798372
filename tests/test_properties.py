"""Invariants of the scheme checked as properties over 1 <= M <= 12, 2 <= N <= 12 and seeds."""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from xchannel.receive import CONDITION_LIMIT, ObservationKind as K
from xchannel.schedule import build_schedule
from xchannel.simulate import run_simulation
from xchannel.transmit import audit_csit_trace

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)
dims = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@PROPERTY
@given(dims, st.sampled_from([0.25, 1.0, 3.0]), st.booleans())
def test_run_invariants(case, variance, normalize):
    M, N, seed = case
    s = build_schedule(M, N)
    first = len(s.phase1)

    # phase-2 balance: every (receiver, copy) unit serves in exactly M-1 pair slots
    units = Counter(map(tuple, s.members[first:].reshape(-1, 2).tolist()))
    assert set(units) <= {(i, c) for i in range(N) for c in range(s.k)}
    assert all(units[(i, c)] == M - 1 for i in range(N) for c in range(s.k))

    sim = run_simulation(M, N, seed=seed, normalize=normalize)

    # the CSIT contract holds with four reads per pair slot
    assert sim.plan.csit_violations == ()
    assert audit_csit_trace(sim.plan.csit_reads, sim.table) == []
    assert len(sim.plan.csit_reads) == 4 * len(s.phase2)

    # observation roles per receiver
    entries = sim.log.entries
    assert entries.shape == (N, s.T)
    for i in range(N):
        kinds = Counter(entries[i].tolist())
        assert kinds[K.DESIRED_PHASE1] == s.k
        assert kinds[K.INTERFERENCE_PHASE1] == s.k * (N - 1)
        assert kinds[K.COMBINED_PHASE2] == s.k * (M - 1)
        assert kinds[K.DISCARDED] == s.T - s.k * (M + N - 1)

    # noiseless recovery; a failed decode must be ill-conditioned
    for dec in sim.decodes:
        if not dec.success:
            assert dec.condition > CONDITION_LIMIT
            continue
        truth = sim.truth(dec.receiver)
        assert np.abs(dec.estimates - truth).max() <= 1e-8 * max(1.0, np.abs(truth).max())

    noisy = run_simulation(
        M, N, seed=seed, noise_enabled=True, noise_variance=variance, normalize=normalize
    )
    noise = noisy.log.values - sim.log.values
    for i, system in enumerate(noisy.systems):
        B = system.noise_map
        # B maps the receiver's noise onto the right-hand side of its system
        shift = system.y - sim.systems[i].y
        assert np.abs(shift - B @ noise[i]).max() <= 1e-9 * max(1.0, np.abs(shift).max())
        # discarded observations never enter the system; desired and combined ones do
        used = np.any(B != 0, axis=0)
        assert not used[entries[i] == K.DISCARDED].any()
        assert used[np.isin(entries[i], (K.DESIRED_PHASE1, K.COMBINED_PHASE2))].all()
        np.testing.assert_allclose(system.sigma, variance * B @ B.T, rtol=1e-12, atol=0)
