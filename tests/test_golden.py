"""Golden hashes of pipeline outputs for fixed (instance, seed) pairs.

Refactors must leave every schedule, stats record and roundabout trace
byte-identical; a changed hash here means behaviour changed.
"""

from __future__ import annotations

import hashlib
import json

import pytest

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
    "blocking-front-k2": (lambda: gen_blocking_front(25, 2, rho_for(2) * (24 + step_budget(25, 2)), 17), 2, 24, 0, True, LasVegas(seed=9)),
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
        '5fa2193717f93a8d944bbd033b72ba66ccaf466a21244e9776b2710d9bb2de94',
        '65d5dd1343e24e48d4cde1074516ae1d4677a1c7cb67f193e9fb5ca0f56f835b',
        '4f1418f2df5eee655507e717353d7408b4ac05007e2a554f9c4d5d15a8cfe623',
    ),
    'delta-only-k1': (
        '5bd0845f55aa6eefbcfdb6df0e6002e08a7d23b97603cc48bf0c07fc1d0ce144',
        '6a3ae9e474c033ab8a09273cab2181b154fd1564d917d3d878841823629fd39b',
        '019805f9a3a70d1bf2f11daee660a30e4e6ba59f8b3150e9f1d0e082f5e41893',
        'd2b17f66271a4c772a3ebf00c80e1354617753bf0cca4e09404e53a0c384294d',
    ),
    'two-vertex-k1': (
        '2679b36446610bde86f6ac14c22512842d9e9f4be3d039c1867f881c6ebc4911',
        '2362168866138d172941bfdd4950713207b1b2afd6cf23edccac5bfd5108c542',
        'c95b85222f391e4ebd43424f2944ae4fba51c583cee6c4f8130f661835f8d5d0',
        'e84dc43baf6486e41247dc811d3d21dadfe73c5de9f784ef04a4dc1a6f4e91ee',
    ),
    'path-k1': (
        '1fe108b5eb131e96ac6842ea72f6495c978a77941657b9712bd70513d72edd2a',
        'b2ccb9bb717570fd4b35ae35d46a9fd704327065cb46c742fb7b73c2ff6f5665',
        'cac1c64846b4f0d87619a3f8bf5e45229a30252e834ddb7e01bc2b30aed9c99d',
        '0dceb544f6bd0b8d1c400689cc26b80ed8cd9c570c750c5d96134987ff3b77b8',
    ),
    'path-k2': (
        '2290277469cc42927ed8ffb1784c9c3d3af85433598b52ff31768f055ea06e51',
        '9832b3f0832bae5b8465db1159e831e6332f25aa80dd907dd17886a04280c0ec',
        '45ce3f06ab4ab33c5af459a72922b16de49dff8f1bd78b883586e7ded176bc4b',
        '96be1772c612c604589743b0820dddd7df8794ba1dd9cb586349379aa6a2fff3',
    ),
    'random-k1': (
        'f8c5c644bf65d22add329b80ae3c5d5d13c8d8f82d0be7ab5b754aa5b309d5f6',
        '1150de0d6e70ec504c9266f1938d9cf41eca18a8cbdd651281cf529910585226',
        'fe7e9a34227dd129cb7fa23bbb23479021268095c10fb45c1d0fd970e06a4f4a',
        '8a604b44c419e6b94f999e5487ffacaad569a28ccae3a5d8988bf9114ce6ed1f',
    ),
    'random-k3': (
        '5d687757a9e0b0f53578b270cf2bdd2058d194acbb99943fac0b6f74f242e68c',
        'ed9ed41657ec1ee933297b697137ab37bb06eb4ce8b2bec3047f27bf97edb146',
        'd27d6dfceb4d4590cc582106afb9256a81eac73bc265248aa04ccebff0209692',
        '8e4c18662a73444a403ce9c38fba315e83443d3ab9c46b91f03d9c3e0543ebe9',
    ),
    'recovery-random-k1': (
        '56ea456a00d5072624b3da73214335627db6510755c8264f9340c851d2cf769f',
        '95577deffcf21696bb2e97b93737c188404cf12376fb5a4fc3cce99b1eeed715',
        'd47adc5b4fe18c00b100ca545475cb6c3524c585df9c528e8ad296a62f50cc83',
        'f28e51a1b8633e948250c4ad7828f0720c1e194676598ae3b5f41e1f99bd6df3',
    ),
    'recovery-star-k1': (
        '4e48e7cb4c7f939def7711a3cedcc9069d17476c9994ef6e687f857169ba11bb',
        '1ebb676624f3225c009b53be047e9d5d7b6f6909e5fdb5c3a3760afbaed73f41',
        'faf61ece32875004a2b11b19ac09b416e9d76839e43d211dc2e369c3fdba60f2',
        '7af527a431b7a5a762c0a80500ec3e92049801bf2fbdaf3b977a47232bd79964',
    ),
    'star-k2': (
        '879b9cbff48908bd7895fb0a9f8f9fd3e1567eecf9f9251c6a12f0f2eb560aa1',
        'c8ea83a6e623dab189f1989710bc8f2f9746eabbde72ccb6f36cf0b283e0dc49',
        '870e3174db12ae40c3c3b901fa58c2ef7094530aa96b07386e83bf88647ee0a2',
        'daccacf671be79d8abe07f96190b3fa46287d764a1701ff73bdd0b7de9dc3999',
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hashes(name):
    assert fingerprint(name) == GOLDEN[name]
