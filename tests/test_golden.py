"""Golden hashes of pipeline outputs for fixed (instance, seed) pairs.

Refactors must leave every schedule, stats record and roundabout trace
byte-identical; a changed hash here means behaviour changed. The full-plan
schedule of each case is pinned too, and the pipeline's schedule must be it
cut at an epoch end.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from reference import assert_cut_of_full_plan
from tempex.core import serialize_temporal_graph
from tempex.gen import GenSpec, gen_blocking_front, gen_random_deficient
from tempex.scheduler import (
    LasVegas,
    explore_detailed,
    recovery_prefix,
    rho_for,
    serialize_schedule,
    step_budget,
)


def _witness_spec(n, k, seed, shape, rate=0.0, connectivity="per-snapshot", delta=None):
    d = n - 1 if delta is None else delta
    lifetime = rho_for(k) * (d + step_budget(n, k))
    return GenSpec(n=n, lifetime=lifetime, k=k, seed=seed, tree_shape=shape,
                   connectivity=connectivity, delta=delta, extra_edge_rate=rate)


def _recovery_spec(n, k, seed, shape, rate=0.0):
    lifetime = 2 * recovery_prefix(n, k, n - 1)
    return GenSpec(n=n, lifetime=lifetime, k=k, seed=seed, tree_shape=shape,
                   extra_edge_rate=rate)


# name -> (instance builder, k, delta, start, use witness tree, strategy)
CASES = {
    "path-k1": (lambda: gen_random_deficient(_witness_spec(6, 1, 7, "path")), 1, 5, 0, True, LasVegas(seed=1)),
    "star-k2": (lambda: gen_random_deficient(_witness_spec(16, 2, 3, "star", 0.1)), 2, 15, 3, True, LasVegas(seed=2)),
    "random-k3": (lambda: gen_random_deficient(_witness_spec(20, 3, 5, "random", 0.1)), 3, 19, 1, True, LasVegas(seed=3)),
    "random-k1": (lambda: gen_random_deficient(_witness_spec(24, 1, 11, "random", 0.05)), 1, 23, 4, True, LasVegas(seed=4)),
    "path-k2": (lambda: gen_random_deficient(_witness_spec(30, 2, 13, "path")), 2, 29, 0, True, LasVegas(seed=5)),
    "delta-only-k1": (
        lambda: gen_random_deficient(_witness_spec(5, 1, 21, "path", connectivity="delta-only", delta=8)),
        1, 8, 3, True, LasVegas(seed=6),
    ),
    "recovery-random-k1": (lambda: gen_random_deficient(_recovery_spec(5, 1, 3, "random", 0.1)), 1, 4, 2, False, LasVegas(seed=7)),
    "recovery-star-k1": (lambda: gen_random_deficient(_recovery_spec(6, 1, 8, "star")), 1, 5, 0, False, LasVegas(seed=8)),
    "blocking-front-k2": (lambda: gen_blocking_front(GenSpec(25, rho_for(2) * (24 + step_budget(25, 2)), 2, 17)), 2, 24, 0, True, LasVegas(seed=9)),
    "two-vertex-k1": (lambda: gen_random_deficient(_witness_spec(2, 1, 4, "path")), 1, 1, 1, True, LasVegas(seed=10)),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(name: str) -> tuple[str, str, str, str]:
    """(instance, schedule, stats, traces) sha256 hex digests for one case."""
    build, k, delta, start, with_tree, strategy = CASES[name]
    result = build()
    tree = result.tree if with_tree else None
    run = explore_detailed(result.graph, k, delta, start, tree, strategy)
    stats = json.dumps(run.stats.to_json_dict(), sort_keys=True)
    traces = "\n".join(
        f"epoch {i}: {line}"
        for i, trace in enumerate(run.traces, start=1)
        for line in trace.format_lines()
    )
    instance = f"{serialize_temporal_graph(result.graph)}fallbacks {result.fallbacks}\n"
    return _sha(instance), _sha(serialize_schedule(run.schedule)), _sha(stats), _sha(traces)


GOLDEN = {
    'blocking-front-k2': (
        'c9e13a57757aab10f1836d8e56538ff3c13837a18e9b68d6c04d2e4150d18f1f',
        '7e2d30c1abbaa050c5a4574e1c12d947e3584bf0dfb0132e57f74a948a2b2e4b',
        '0ce0acb9fddf030c6a48bfd62364f9737955ade49bb2a06306ece3f0b86bb4c9',
        '739d6cde791c9cc86b98c9d8566aac6d6e637be4f9ca41e7690fc1de85d07ae4',
    ),
    'delta-only-k1': (
        '075bc8c63156545d66ec980a61211df25730184c28220badf86b9121288dd552',
        '743e65c6799f0b61c4e8c65cea4593ae97b17ef0c32160f88414b8dee64fcd85',
        '83ee34d4cbac150ea4f00624ccfaeb5f7da0bebbb74904068f3ee98a30a6f9fc',
        'f0cd2711a48d38cbc1e7eec5fcc6dc19811673c71f66becac33bb4fdf86e0a08',
    ),
    'path-k1': (
        '1fe108b5eb131e96ac6842ea72f6495c978a77941657b9712bd70513d72edd2a',
        'ff963f470af8138563403c562d6bf6b774af081661966e1b7926529c604da900',
        '1261fdbe23134cd50000df544b6a1b5bef82b07e8dc7d87ba1d17edc5d810bdd',
        'bf7c1c64b1822eb5db16ba44a19c6394113de544ef9ad4d99e3e035ff35c5eba',
    ),
    'path-k2': (
        '2290277469cc42927ed8ffb1784c9c3d3af85433598b52ff31768f055ea06e51',
        '9180c6ea08d8319072a4ee3bf38727a6971c068789585203fe1e304df2bf5902',
        '82ef96ad515a81f9d380a5c453ecb3fd0e5b3269958d9cff0a78563874250843',
        '15d58348243abc9f6f626f2321ee427f17a557801dc5cbce7a41effbef41c79f',
    ),
    'random-k1': (
        'c0963fa625b0668e8b448758d0ac32de32e5213ecdfd96707cfef4b3432ff3e6',
        '3ee340d00dd8c1cc3dd912164d74af0d0349aa9a1042e6dced0d0f80ebc2210e',
        '89675ef36d4909116bf675e70a3cbd5b72b9f33b46efdccc8b11c1ae4443a5c1',
        '1cb4068c7c1bed1fa8a44342d350d9c21eedb2ada25e16a6461db3dbe75e728e',
    ),
    'random-k3': (
        '3a2cb7c2f6c0512fbbe760996bcd69d775350e388e476e208a227870f9628f23',
        '788222da6f2c475b342867336c4aadc9192f22b27f5b67e910dcb2ca8f1d5b8b',
        'cde72c933b4cdad28a27b821d385cafb9b53a7119bb557da0aab082a7cc3daa7',
        '24740005257aa0dbfa7cdfa78d52057b0ea42d95590ab5b1c955b4e9c6742a69',
    ),
    'recovery-random-k1': (
        'c75441cae26423e3b9b3e06cd6a1895de07ee35734f407af1f85c7e4c8e80900',
        '94a6b84ec4914c83847e06c3d25fe18f99c3ef29287cfd8becc6cc16c6eb28be',
        '6acdd78df4cb13a54250b6b4c293d3a87d1aeda6000103cbcbcf353819762072',
        'd1887e4b011468cce64c2b1778cbd8f0c94abd3b53785f97b017a81bc04af944',
    ),
    'recovery-star-k1': (
        '4e48e7cb4c7f939def7711a3cedcc9069d17476c9994ef6e687f857169ba11bb',
        '5dd1f3551b5632694f3d6097e24555f949cc3ce319fc1dc8d792f56b66fbad81',
        '4f042e8c3150ae140b87aa61dde9d6b472da53d392af18a834857438c57823f7',
        '19557cdeef6714025a88dfacc0a0777ca5c47029b7bd473e0b4419bb0e892c3f',
    ),
    'star-k2': (
        '095f8507116ba23cd271a4f3f995136e4de6ba11d99d32a4d94e9e1867ddf8be',
        '550472f0affe1dafbf9b35a7065791f1b3184a1e64f0c3c3e6136c1944b5ec7b',
        '751189a9191f3d92a44fac62d9fb50eddd00c46019d72f6347230681fd1919b3',
        'b2ee85ab63a50ad6763891bed02d9c229a8280867ab2929ce3210c2a4bb4281f',
    ),
    'two-vertex-k1': (
        '2679b36446610bde86f6ac14c22512842d9e9f4be3d039c1867f881c6ebc4911',
        'de82c56c887c5e080d76b619f47b57ec9325f5b4ae68093b9ff121fe6c381943',
        'affae5541245fdba7607830fcb025c9df4ea5071f45d044d3764bc03fb51d1c0',
        '921221bb4ca98ed49f51d5eb0de73dd310f85922f96291620aca8669b7855b88',
    ),
}

# sha256 of each case's full-plan schedule (every one of the rho epochs,
# reference.full_plan_schedule), the schedule the pipeline wrote before it
# stopped at cover. The pipeline's schedule is this one cut at an epoch end.
FULL_PLAN_SCHEDULE = {
    'blocking-front-k2': '5fa2193717f93a8d944bbd033b72ba66ccaf466a21244e9776b2710d9bb2de94',
    'delta-only-k1': '6a3ae9e474c033ab8a09273cab2181b154fd1564d917d3d878841823629fd39b',
    'path-k1': 'b2ccb9bb717570fd4b35ae35d46a9fd704327065cb46c742fb7b73c2ff6f5665',
    'path-k2': '9832b3f0832bae5b8465db1159e831e6332f25aa80dd907dd17886a04280c0ec',
    'random-k1': 'a6f646b4064d9a970a7c465633314d459cbd7350b19a357a88e7450ccdb7543d',
    'random-k3': 'ab1615915b16d111fdd029e29d59636ebd19296a93e0853cc13615c5681638a0',
    'recovery-random-k1': '361498625a8beef48eba91e46ebd65e3b4880c5bd1e0b39f11af98a63a01fdd7',
    'recovery-star-k1': '1ebb676624f3225c009b53be047e9d5d7b6f6909e5fdb5c3a3760afbaed73f41',
    'star-k2': 'a15a6eb62b4f298dc715c2a1150528035bdeba30e5187966f067c215e4188761',
    'two-vertex-k1': '2362168866138d172941bfdd4950713207b1b2afd6cf23edccac5bfd5108c542',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hashes(name):
    assert fingerprint(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_is_the_full_plan_schedule_cut_at_an_epoch_end(name):
    build, k, delta, start, with_tree, strategy = CASES[name]
    result = build()
    run = explore_detailed(result.graph, k, delta, start, result.tree if with_tree else None, strategy)
    full = assert_cut_of_full_plan(result.graph, run, delta, start, strategy)
    assert _sha(serialize_schedule(full)) == FULL_PLAN_SCHEDULE[name]
    assert len(run.plan.epochs) < run.stats.rho
