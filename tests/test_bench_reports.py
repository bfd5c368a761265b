"""The reports of the benchmark's jobs, pinned by digest.

The golden files pin the fixture scenarios' reports; this pins the bytes
of every job of every workload that `perfbench/workloads.py` builds at
seed 1, run once each through `chrdc.cli.main` in-process, as
`perfbench/run.py` runs them. The digests are the `sha256=` values that
`run.py` prints per job, so a bench run at seed 1 can be compared with
them by eye.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import pathlib
import sys

import pytest

from chrdc import cli

_WORKLOADS = pathlib.Path(__file__).parent.parent / "perfbench" / "workloads.py"


def _workloads():
    """`perfbench/workloads.py`, imported by path: it is not a package."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


DIGESTS = {
    "corpus": {
        "leq-decreasing": "87ae92218351c283c4fb7cfc0a058b8195a61e5cb10dd7ed87980402239dbcca",
        "leq-local": "3576b631a497535e51db63bb7312ffd3ac63aa5f30f57c18bb31e37c657a283e",
        "leq-strong": "95d5b3abdda22ae138eee1de3ca1d5bd42ac1a166d923c3d0b1b3d90be427a1b",
        "leq-strong-rd": "2a26820de55d7fe212ab40727fefbcce6389f88c8c4896264f9d0ec933eaa385",
        "mod-reflex-dup": "f92e6459c1b8b1e63e368f7c0c5143496d481b37dfe3e07e02c221fdc7887eb8",
        "mod-splus-sminus": "101deef5f5478ad0793f1eb9a7711114d48dd0da091f60e02d278d453e65929c",
        "mod-violating": "a3402604f97000cc8a0afe68a84753b9d4409d69813408d0c795c24bb5ecb75e",
        "philos-decreasing": "01297c0098bbe0baa1ca86e521df6303cb952c25e7c9149764a0172e8cac31f2",
        "philos-peaks": "e71890c4cc951cb15084423c77ccd76c1be2340630537cd8de3fb33232d7d597",
        "pminus-allind": "33992c00b771933542b52817baf06a3cd68cb15e83a025207aac123b480e2056",
        "pminus-coind": "026e79a3093b18c6528a5e0e0a1a83132cfe8cab037c8abad50eb54850cf5cf2",
        "pplus-allcoind": "5b96484ed32728945442e58df22b5ff3d1132882a52e1e66014c4d02a8d25f9e",
        "pplus-ind": "f5ead168f444c7c4740638a9f807023d7956429bca8efb02b11484b7c85825ec",
    },
    "exhaust": {
        "ex0-trans-s40": "4dbf3331697585cd2f8ef050be4ea9e16b7abbe76eff846cfd21f1c0cb22554f",
        "ex1-trans-s70": "9da8298c7ca34f9d480bf43e7e506c772af6e8626b717233d2ab365edde8b48c",
        "ex10-trans-loop-back-s40": "2e9c9aa7d61d0c4b76535e6fa85d482e0d4470dc9922349d2fa3c936cf20ee5f",
        "ex11-trans-loop-back-s70": "2b068e1ec429827f13784e7074d5365c3bc54201aecd3f6e334bbc61da13da42",
        "ex12-trans-loop-back-s100": "fb22ec042c67c34f88d9160ad7f8e832c8e5828cd16c78322634059db7c751c8",
        "ex13-trans-loop-back-s130": "e304cdf3d00b9330271a02439bd0efb2aa05df3004eb1105137ae5902ca5f7e7",
        "ex14-trans-loop-back-s160": "78e228a4c4ab1d4260e105ec0251b43059aae122ce023a6c7da9215fbe236e1e",
        "ex2-trans-s100": "f2dc95036d6d31941fd3ae47562e42ecf3dc1a7e93053c486c36e1a0ad81c680",
        "ex3-trans-s130": "41526e7735fa0f4d970cc0f62c81993c424baf512a01b546a9450f3f35bc7c72",
        "ex4-trans-s160": "b4c30df64aedd07c7edb8ef707c558f505a8f12866342b9bf3e50073909e0947",
        "ex5-trans-sym-s40": "dd8308c07685eafe0767357be1e88f9ae2d7fdbe0eb56500bf85714b480e5652",
        "ex6-trans-sym-s70": "e91ccece0a446a1884c5f1eb1438c8bfd14700d39ee73f54eb33b170a6b29b47",
        "ex7-trans-sym-s100": "39cdacaeb8e36c457d727bdae095214c6d8c18fb05128cebc8a58eefe91b8559",
        "ex8-trans-sym-s130": "89f7d39a69c3f787e0dfdc79fd94f1b9fd22dbb89140d3f134eb925f4b53b630",
        "ex9-trans-sym-s160": "916820a706fd2fcd65c2cd73b3ba80cdd8994644a9befb2e4e6ad186abc903ed",
    },
    "orders": {
        "ord0-leq-m1": "87f49c4a94720dfb5040fe89939ed5dcf903c0312678963b3aba50819ebb10ad",
        "ord1-leq-m2": "5b1b5db528d0c60ba6fa4f9bfa56448de2df818d541cbd9e59282219ce83b1bc",
        "ord2-leq-m2": "04e5728158ec0f23e97c497770c18a4937af1d3d7402c35f6d1f862eafee4023",
        "ord3-leq-m2": "2d57b7882513cb023fb423f2a25d9467f3ac698837cf367ac04482f5f0ae7060",
        "ord4-pplus-m2": "698c12952e4d5ea7446703e692f09b5603cbcdf07987d155c26438078f7604fb",
        "ord5-pplus-m3": "2936e7573f0fec4b606d1adfd99b78306a780568af50ee71b60c0a7da5c4aeab",
        "ord6-pplus-m3": "2936e7573f0fec4b606d1adfd99b78306a780568af50ee71b60c0a7da5c4aeab",
    },
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_generated_bench_reports_are_pinned(workload, tmp_path):
    bench = _workloads().WORKLOADS[workload](1)
    for name, text in bench.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    digests = {}
    for job in bench.jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(job.argv(str(tmp_path)))
        assert code == job.expect.exit_code, job.id
        digests[job.id] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digests == DIGESTS[workload]
