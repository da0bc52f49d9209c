"""Golden hashes of pipeline outputs for fixed (instance, seed) pairs.

Refactors must leave every schedule, stats record and roundabout trace
byte-identical; a changed hash here means behaviour changed. The full-plan
schedule of each case is pinned too, and the pipeline's schedule must be it
cut at an epoch end; so are the traces of all the plan's epochs, which do
not depend on which agent each epoch replays.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from reference import assert_cut_of_full_plan, run_epoch_traces
from tempex.core import serialize_temporal_graph
from tempex.gen import GenSpec, gen_blocking_front, gen_random_deficient
from tempex.scheduler import (
    LasVegas,
    explore_detailed,
    partition_epochs,
    recovery_prefix,
    rho_for,
    serialize_schedule,
    step_budget,
)
from tempex.tour import build_dfs_tour


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
    instance = f"{serialize_temporal_graph(result.graph)}fallbacks {result.fallbacks}\n"
    return _sha(instance), _sha(serialize_schedule(run.schedule)), _sha(stats), _traces_sha(run.traces)


def _traces_sha(traces) -> str:
    return _sha("\n".join(
        f"epoch {i}: {line}"
        for i, trace in enumerate(traces, start=1)
        for line in trace.format_lines()
    ))


GOLDEN = {
    'blocking-front-k2': (
        'c9e13a57757aab10f1836d8e56538ff3c13837a18e9b68d6c04d2e4150d18f1f',
        '52e811b17c086977c09ebf6b242aff47136dd5a3389ef5fe5afd462b628f557a',
        '873bb9d3a2ce380ef4dce15ebc8e59541e69cdb45903ca0b8d7c8201b01bee03',
        '323e016029c6324e1dd160b3d730c8efca76643002fd51d0d0e75efa38b60f49',
    ),
    'delta-only-k1': (
        '075bc8c63156545d66ec980a61211df25730184c28220badf86b9121288dd552',
        '12158668b352820d177455d78757107fd5a58c2fb09ddc956bc543efc94d0bd9',
        '8fc0d6ad89b93fc5c3e968a22b7bccc0c501d8f6bb96bf1334b25c57c2b399fc',
        '76012ec3dd6952409e8963413f27c7bf4ca6750c6bb53fc1cc983b62ad2a4ad8',
    ),
    'path-k1': (
        '1fe108b5eb131e96ac6842ea72f6495c978a77941657b9712bd70513d72edd2a',
        'c6e3fa77f77bf18c3bae3770f806d7ab08286b057162cc1160a01022a73d6ca5',
        '4eb0555643731b13f0672dd25202063819f23bafc6ecdb1145d38e485d6aa27f',
        '529518b004ced62d32e2c48e326ae3c2334cf2213f6a13ebbd46957d7830f38a',
    ),
    'path-k2': (
        '2290277469cc42927ed8ffb1784c9c3d3af85433598b52ff31768f055ea06e51',
        '05b16d77bf461349d77c79f43d454236b0862b04a4ff47ced86974275ea60fda',
        'ae65503a12c4b07a73feaec0229a23e9824f41bf24f83b44a73c2b7c81473a21',
        '15d58348243abc9f6f626f2321ee427f17a557801dc5cbce7a41effbef41c79f',
    ),
    'random-k1': (
        'c0963fa625b0668e8b448758d0ac32de32e5213ecdfd96707cfef4b3432ff3e6',
        '764052954744d25f3642f096853d40f9442e57810cf783006ad56b8a268df0b7',
        '633946d8e205d9deba923e9a0628fcc3a10d88c7dd7f1ff8da77b91d6b699563',
        'a042e079522e223c74605617f8adaa9ea253183e1afd0b12726771cbb34714d8',
    ),
    'random-k3': (
        '3a2cb7c2f6c0512fbbe760996bcd69d775350e388e476e208a227870f9628f23',
        '239e54de5df9bdb281eec523fffe1ddf5260b1aba1b465a4c289b5370de67ede',
        'e7011f20167b23351619c9129edd51d108f64d595b7e69f5e2fe0a439ac0740a',
        '2ccd187e12a7e9064b11925d69c23f292adbbb683a6599d97fd462193731125d',
    ),
    'recovery-random-k1': (
        'c75441cae26423e3b9b3e06cd6a1895de07ee35734f407af1f85c7e4c8e80900',
        'aaf651ca41a57677f76a7f0a186385dfb5c62c1ac960c5d5b006ae4be5271072',
        'ab3600eef67c3ab7d4a91ae197a2da350044278d6e81d8625d7dd1b50ca76cf5',
        '7d20933bf1e7c0c69b917f74cb5f035e0cdff9ed65c56221336e51a1c5402e6c',
    ),
    'recovery-star-k1': (
        '4e48e7cb4c7f939def7711a3cedcc9069d17476c9994ef6e687f857169ba11bb',
        'cf96e9833983b50cdaa0b734991f53a7589d9ddc3a5446682e1df4395f3117a6',
        '5a90e7b46099a6b1f749416bf5ec0072e0ce2db5609834289172465c6a1fafc9',
        'ad160e2b879db7f9c6c2364e73c22dfa3c317333a70590dc383c01e0bd4f26f5',
    ),
    'star-k2': (
        '095f8507116ba23cd271a4f3f995136e4de6ba11d99d32a4d94e9e1867ddf8be',
        'd7019b9f84618dc503b333ea3b18304a6a363e390c5e203506f79b8eb99d0ac1',
        'f2be083af5729bc04c748da6d7cbcf49dd246561d60b5e18ecec2ef16ca43a0a',
        '98b0417b59421704f59bb1a5727ff8befc601c9ce9e68b87917db9897a00196b',
    ),
    'two-vertex-k1': (
        '2679b36446610bde86f6ac14c22512842d9e9f4be3d039c1867f881c6ebc4911',
        'de82c56c887c5e080d76b619f47b57ec9325f5b4ae68093b9ff121fe6c381943',
        'affae5541245fdba7607830fcb025c9df4ea5071f45d044d3764bc03fb51d1c0',
        '921221bb4ca98ed49f51d5eb0de73dd310f85922f96291620aca8669b7855b88',
    ),
}

# sha256 of each case's full-plan schedule (every one of the rho epochs,
# reference.full_plan_schedule, under the greedy choice). The pipeline's
# schedule is this one cut at an epoch end.
FULL_PLAN_SCHEDULE = {
    'blocking-front-k2': 'aef3a8b0488b9222eb40fbd0953f3847d798bdffb7e23ca54c27a61553a34412',
    'delta-only-k1': '8b6bc50defda22e7ddf1c295f098f34f76a693a542f7613964c9813d000df117',
    'path-k1': 'dbd6cb11d44fadf20af07776f6d91676d83e349c2c1fbc25e50d9b1b4faa78f3',
    'path-k2': '92e9097d0a2d84b239b2ea1d022d37488d59756d7c17251089efe2deec20b77a',
    'random-k1': 'c0f48d933afff59e28cf849520116ddcdc9c8e8c3b949406b1e8e40cb67d08e5',
    'random-k3': 'd3398fffbef10c490b5adc3fb7b43cf01b606cdf267ba4fac84610d66010238a',
    'recovery-random-k1': 'c07e467b6203616e9f17dba058536607aff1ec73eedff3b07c4b376fc2353c8d',
    'recovery-star-k1': '437916e467a4dc2cb68d1ccbd6d5c60e96d7da702e888aa9ed6cb36550e32686',
    'star-k2': 'cbd9e1e1e72f381a40a3d21ae4180b5d3a9df1ae585e947c46899dd37cd95ee0',
    'two-vertex-k1': '2362168866138d172941bfdd4950713207b1b2afd6cf23edccac5bfd5108c542',
}

# sha256 of the roundabout traces of all rho epochs of each case's plan
# (reference.run_epoch_traces), which no choice of agents can move. The
# traces the pipeline recorded are the first ones of these.
FULL_PLAN_TRACES = {
    'blocking-front-k2': '4f1418f2df5eee655507e717353d7408b4ac05007e2a554f9c4d5d15a8cfe623',
    'delta-only-k1': 'd2b17f66271a4c772a3ebf00c80e1354617753bf0cca4e09404e53a0c384294d',
    'path-k1': '0dceb544f6bd0b8d1c400689cc26b80ed8cd9c570c750c5d96134987ff3b77b8',
    'path-k2': '96be1772c612c604589743b0820dddd7df8794ba1dd9cb586349379aa6a2fff3',
    'random-k1': '8a604b44c419e6b94f999e5487ffacaad569a28ccae3a5d8988bf9114ce6ed1f',
    'random-k3': '8e4c18662a73444a403ce9c38fba315e83443d3ab9c46b91f03d9c3e0543ebe9',
    'recovery-random-k1': 'f28e51a1b8633e948250c4ad7828f0720c1e194676598ae3b5f41e1f99bd6df3',
    'recovery-star-k1': '7af527a431b7a5a762c0a80500ec3e92049801bf2fbdaf3b977a47232bd79964',
    'star-k2': 'daccacf671be79d8abe07f96190b3fa46287d764a1701ff73bdd0b7de9dc3999',
    'two-vertex-k1': 'e84dc43baf6486e41247dc811d3d21dadfe73c5de9f784ef04a4dc1a6f4e91ee',
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
    plan = partition_epochs(result.graph, run.tree, run.plan.k, delta, run.stats.rho, run.stats.budget)
    traces = run_epoch_traces(result.graph, build_dfs_tour(run.tree), plan)
    assert _traces_sha(traces) == FULL_PLAN_TRACES[name]
    assert list(run.traces) == traces[: len(run.traces)]
