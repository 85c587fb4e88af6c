"""Golden digests of CLI reports: every listed job, run in process through
cli.main, keeps its exit code and the SHA-256 of its stdout.

The timing is masked first: "timing_ms" in a json report, the "timing:"
line in a text one. A simulate or sidon report hashes only its input,
options and result.exact, since its floats depend on the BLAS build.
A refactor that keeps every report byte for byte keeps every digest;
a change that means to alter a report records the new digest with it.
"""

import hashlib
import io
import json
import re

import pytest

from tametorus.cli import main
from tametorus.tameness import decide_cascade, decide_semicascade

NAMED = ("identity", "shear", "rot4", "rot6", "nilpotent", "projector", "catmap")
FLOAT_COMMANDS = ("simulate", "sidon")


def _matrix_job(a, **extra) -> str:
    return json.dumps({"d": a.d, "A": a.to_lists(), **extra})


def _jobs(named) -> dict:
    """Job id -> (argv, stdin text, format). The argv lacks --input and
    --format; the id ends in the format."""
    jobs = {}

    def add(name, argv, text, formats=("json", "text")):
        for fmt in formats:
            jobs["%s-%s" % (name, fmt)] = (argv, text, fmt)

    for name in NAMED:
        a = named[name]
        for command in ("semicascade", "cascade"):
            add("%s-%s" % (command, name), [command], _matrix_job(a))
        for decide in (decide_semicascade, decide_cascade):
            if decide is decide_cascade and abs(a.det()) != 1:
                continue
            cert = decide(a).to_dict()
            add("certify-%s-%s" % (cert["kind"].lower(), name), ["certify"],
                _matrix_job(a, certificate=cert))
    # rot4 has the least pair (0, 4); the pair (0, 8) is a multiple, not the least.
    add("certify-mutated-pair", ["certify"], _matrix_job(named["rot4"], certificate={
        "verdict": "TAME", "kind": "SEMICASCADE", "index_k": 0, "period_s": 8,
        "minimal_pair": [0, 8]}))
    add("frequencies-catmap", ["frequencies", "--iters", "50"], _matrix_job(named["catmap"]))
    add("frequencies-rot6", ["frequencies"], _matrix_job(named["rot6"]))
    # The last three boxes hold matrices with ||A||^(d + s_max(d)) > 2^63 - 1.
    for d, lo, hi in ((1, -3, 3), (2, -2, 2), (2, -3, 0), (3, 0, 1),
                      (1, 2 ** 21 - 1, 2 ** 21), (2, 117, 118), (3, 10 ** 9, 10 ** 9 + 1)):
        add("sweep-d%d-%d..%d" % (d, lo, hi), ["sweep", "--range=%d..%d" % (lo, hi)],
            json.dumps({"d": d}))
    add("simulate-rot4", ["simulate", "--iters", "20", "--grid", "8"],
        '{"d":2,"A":[[0,-1],[1,0]],"b":["1/4","0/1"]}', formats=("json",))
    add("sidon-squares", ["sidon", "--iters", "6", "--seed", "9"],
        "".join("%d %d\n" % (k, k * k) for k in range(1, 100)), formats=("json",))
    add("error-malformed-json", ["semicascade"], "{nope")
    add("error-dimension-cap", ["semicascade"],
        json.dumps({"d": 33, "A": [[int(i == j) for j in range(33)] for i in range(33)]}))
    add("error-iters-cap", ["frequencies", "--iters", "100001"], _matrix_job(named["catmap"]))
    return jobs


def _masked(command: str, fmt: str, out: str) -> str:
    if fmt == "text":
        return re.sub(r"^timing: .* ms$", "timing: T ms", out, flags=re.M)
    report = json.loads(out)
    if command in FLOAT_COMMANDS and "exact" in report["result"]:
        return json.dumps({"input": report["input"], "options": report["options"],
                           "exact": report["result"]["exact"]}, sort_keys=True)
    return re.sub(r'^  "timing_ms": .*$', '  "timing_ms": 0', out, flags=re.M)


def run_job(job, monkeypatch, capsys) -> tuple[int, str]:
    """Exit code and masked-stdout digest of one job, its input on stdin."""
    argv, text, fmt = job
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(argv + ["--input", "-", "--format", fmt])
    out = capsys.readouterr().out
    return code, hashlib.sha256(_masked(argv[0], fmt, out).encode()).hexdigest()


DIGESTS = {
    "cascade-catmap-json": (0, "4c703eebfe24ee7a342c6e0a664645df36a935c9be032d41592a0fe84c970599"),
    "cascade-catmap-text": (0, "5c47b6d7e032f9c6e078d8a2791994a46a133cc3561a144d1cae7d6bb6c89ab4"),
    "cascade-identity-json": (0, "38e82a3ac94d2fceec6e460350ab2424936931594602c1f66201f369b43d2d91"),
    "cascade-identity-text": (0, "9a9f078b57dffe9a8dfbc687eee3634c2a2b1c4c46259af0dc1e08b4245ce81f"),
    "cascade-nilpotent-json": (3, "8c8a50a277c36221ed51227adcbcfe23a8ca10d2e3db31315a06d84f90033358"),
    "cascade-nilpotent-text": (3, "1bf852918dc58b498d81f09decc190537e98a9f8213804fbc38b100bcba07868"),
    "cascade-projector-json": (3, "9825365e78934b34ff624a9bef1336313dc88fee917892cdb409439186108af2"),
    "cascade-projector-text": (3, "1bf852918dc58b498d81f09decc190537e98a9f8213804fbc38b100bcba07868"),
    "cascade-rot4-json": (0, "519f16777ca1381c14ac0131130f089dde2c932ee1b9e7fba35fb818ef6a4c37"),
    "cascade-rot4-text": (0, "813f68b5db7b735f9d60058e1068d26c3a77dee60e417e387f0f33079188d8f9"),
    "cascade-rot6-json": (0, "8b40327a2a276eed678cda4aaad0ff1ea47f9a7017ca55bb649ca4e27550efa6"),
    "cascade-rot6-text": (0, "53ad6d5716c9ee2b9cf9e50e716e284eea3f2b072e65270395ce5a70a141fad9"),
    "cascade-shear-json": (0, "8b81659a0fceafe257c819e53c0abf7e328e3afde50b868306a9ceff184dad15"),
    "cascade-shear-text": (0, "759a0ecdbbbfd1c735e8862f976550d22bde9a8c045c81ec265e151834afe5de"),
    "certify-cascade-catmap-json": (0, "bfc26dd1f13fd6bdb0878ce0c35735c8ee1e1e992c301f1aed27a285f6461623"),
    "certify-cascade-catmap-text": (0, "a7bf260baffb2040e016a7849a0c07631a636637bc5dc8f8954ec9b0bff3c014"),
    "certify-cascade-identity-json": (0, "15a7dde98f1f90a743b5d5cdc7a031d5e59420b1c659c9545f40b435f396f0ec"),
    "certify-cascade-identity-text": (0, "a7bf260baffb2040e016a7849a0c07631a636637bc5dc8f8954ec9b0bff3c014"),
    "certify-cascade-rot4-json": (0, "1b3741c76b03a9d46fb92a87d87f68ecce07ea093f97f1d2957931576764ac77"),
    "certify-cascade-rot4-text": (0, "a7bf260baffb2040e016a7849a0c07631a636637bc5dc8f8954ec9b0bff3c014"),
    "certify-cascade-rot6-json": (0, "6d5bc513d7a42c1bffc53acf97786c95a7356e38821f235be89ab4f4d7c8714c"),
    "certify-cascade-rot6-text": (0, "a7bf260baffb2040e016a7849a0c07631a636637bc5dc8f8954ec9b0bff3c014"),
    "certify-cascade-shear-json": (0, "aaeb47e666b04d137bfa5f26dc6548ed1b34540f0d764c2d4fbd7e68b88fae36"),
    "certify-cascade-shear-text": (0, "a7bf260baffb2040e016a7849a0c07631a636637bc5dc8f8954ec9b0bff3c014"),
    "certify-mutated-pair-json": (0, "1ea6553451f1e4cfadea9bbceb498b473b5b8d9107e2c436ce03eaad45c2b461"),
    "certify-mutated-pair-text": (0, "3b403291a1aafb14d4ad538db27646edb3aaf0bc10257998fdb86cddec6c0426"),
    "certify-semicascade-catmap-json": (0, "44973c5fdd11551419956b7ae94753c21f4131999686b7f1a62a80c97a5fb1ca"),
    "certify-semicascade-catmap-text": (0, "a7bf260baffb2040e016a7849a0c07631a636637bc5dc8f8954ec9b0bff3c014"),
    "certify-semicascade-identity-json": (0, "2c1bca9318f4b04e04af5261bcee121b733240f55d5a2870a74b6aef168fc492"),
    "certify-semicascade-identity-text": (0, "a7bf260baffb2040e016a7849a0c07631a636637bc5dc8f8954ec9b0bff3c014"),
    "certify-semicascade-nilpotent-json": (0, "9a837544cfc063d1d006bc5c38daadeefaa3ca6b0f871532bdf51ad8bc38535b"),
    "certify-semicascade-nilpotent-text": (0, "a7bf260baffb2040e016a7849a0c07631a636637bc5dc8f8954ec9b0bff3c014"),
    "certify-semicascade-projector-json": (0, "e886746aff8f3ad4256e19a3ede665cf29e74fe4c8baa803f67c52f52750608c"),
    "certify-semicascade-projector-text": (0, "a7bf260baffb2040e016a7849a0c07631a636637bc5dc8f8954ec9b0bff3c014"),
    "certify-semicascade-rot4-json": (0, "31d2cc05846b62b629b3a4d84a8a45c0fec467a0399ea880e28f719ace842003"),
    "certify-semicascade-rot4-text": (0, "a7bf260baffb2040e016a7849a0c07631a636637bc5dc8f8954ec9b0bff3c014"),
    "certify-semicascade-rot6-json": (0, "d705321602815a390ee4328633cb1b205aa2dac8d43924f3bcc2593748e198f8"),
    "certify-semicascade-rot6-text": (0, "a7bf260baffb2040e016a7849a0c07631a636637bc5dc8f8954ec9b0bff3c014"),
    "certify-semicascade-shear-json": (0, "aaea233f9fa26eec2c9e067c23702efd22e423f36ca7418b437c1f4a94b0a7e6"),
    "certify-semicascade-shear-text": (0, "a7bf260baffb2040e016a7849a0c07631a636637bc5dc8f8954ec9b0bff3c014"),
    "error-dimension-cap-json": (4, "bf0eb731d85b42fe737979f0e2921310b1bb84fe6e6f2ff80ec400041bdd47b4"),
    "error-dimension-cap-text": (4, "752aa5a0b560938f08ae1964e6706e18bcca027b7ee9e20e457c63359d75f220"),
    "error-iters-cap-json": (4, "4ba34dd1c0288fcef356733dfc973afcd08e51515972dcabda2c50c0597e761f"),
    "error-iters-cap-text": (4, "c9055ba5048ae7ac1416fa6128ab55854cfea2125a43cff8f8ed007350d31441"),
    "error-malformed-json-json": (2, "87d4c0c4cbcbafdbc971a0dc0c562cb31ca215e1baaac69c403775076d81e08a"),
    "error-malformed-json-text": (2, "e5b2ead7e0c36b16f7e669f57bd58efe6f11a73380fd801dcbdcf80d2af58236"),
    "frequencies-catmap-json": (0, "f6806794f6156f2c9fa15083b0b94aba13ced6414f23315854f46e5c57c456ab"),
    "frequencies-catmap-text": (0, "016fd8ac293b58810b669113cb3d23b5cb8d38374a6200a23f935bee73321637"),
    "frequencies-rot6-json": (0, "b0575673791e610a6687a0ff0471ba03a7507720830b9dfd695710c5e20f26d3"),
    "frequencies-rot6-text": (0, "f89b1fcdf78fe51fe5106ba0417848f880e06cb16e51794e4f7b1a1c4e7c6e86"),
    "semicascade-catmap-json": (0, "6a5b9573c6b97d7ea284db2a18417f6ae43bb12dd0de4d7be578c9c4f03e1014"),
    "semicascade-catmap-text": (0, "ed3e8f5650eda898f96cc03109804c0a80e41d15a6980c859c991812d847ab60"),
    "semicascade-identity-json": (0, "7286fc50db288688cf3558edd09b32b27909b3f468a451ec6fade216d47f23d5"),
    "semicascade-identity-text": (0, "10d19dbdeee052653143239632e60cca12a0576f5aa793c7a6816c31ac881a35"),
    "semicascade-nilpotent-json": (0, "1e1831fe35aa51992885b6a536d066a718fd18101685df6488fe60843a2670ea"),
    "semicascade-nilpotent-text": (0, "a8467abdcf86141b64cf6dc541db42c74a3ad91b14005b8d7a903ad9d79c9a86"),
    "semicascade-projector-json": (0, "cb713ccf82fc64e2e99e21de8cad783d6360a4fd13d1a9398d9433c45c7b0a53"),
    "semicascade-projector-text": (0, "a589205ad692dc70258bf75ff025017ec86750567842f7bcc12f8af1e265fb52"),
    "semicascade-rot4-json": (0, "b312dd6329b74963e5f805a29f3d95294d96b65d0eb2b91744f1787d39ce2b81"),
    "semicascade-rot4-text": (0, "7d9315bf08362d7837a2ab63935b26377593cf9c7d34f69451c0693f1c34d282"),
    "semicascade-rot6-json": (0, "562a87caa46f70a97cb15897f5f427ab5c73f39a24c7c8664b3b9820a7b0512e"),
    "semicascade-rot6-text": (0, "60506de87b2b35e0d322d3e4ba55586da86f3357e21d8c0581bd64b9b530d9d8"),
    "semicascade-shear-json": (0, "cba08d27d2a10475f4e0abd85163546ac72eec0e94cb87ec166cdda2982eb757"),
    "semicascade-shear-text": (0, "b08cffe379378a4088cdf1b979d85a51fd751e7d8fcf1541839a469cc56c6ac9"),
    "sidon-squares-json": (0, "c923d65cb8731dddfadfc83af1b06d259840a73ed3193b92a5f6ee798f826a31"),
    "simulate-rot4-json": (0, "7984838f0d06b536c35863db705419dce5569517a8085adf3426b5c25c284c8c"),
    "sweep-d1--3..3-json": (0, "25496f7c93c358051b7ff3ef03e25b19d0bd54cbd5143e5c46ff281fa47110d3"),
    "sweep-d1--3..3-text": (0, "3281084599c7251a96b784858067af59bf44b8c9d6c8992b8049486258a159fa"),
    "sweep-d1-2097151..2097152-json": (0, "9c33da074aaf1863b14d556a0b2abf03db01b7eff8e800e8a95d28c2b39eee96"),
    "sweep-d1-2097151..2097152-text": (0, "6f7888935dbe3f01d4fb5ccee4358e6082458b45fd5bde4d23c04c0b52fbdfde"),
    "sweep-d2--2..2-json": (0, "d10f642384b915820037cf06487a24c4c13d784579d467c4e931f8c616d6d4d0"),
    "sweep-d2--2..2-text": (0, "53a8086a0b0120047cf4c29de055c681c928964cdd2d21dda6416003f67ce3b9"),
    "sweep-d2--3..0-json": (0, "03a36e59f957907de1e1d8ca815ce359e7910cbb97390070398e5bdfc930956c"),
    "sweep-d2--3..0-text": (0, "e6236bc162e359d9faa3086b3c4151befc4954fcebafa13b975c4aed600a6e5b"),
    "sweep-d2-117..118-json": (0, "0d8641ee2e6b5955105bfb4d2d6482ecbf1a5e113aae3d902e5478e61c89611c"),
    "sweep-d2-117..118-text": (0, "d86a114c0901433439af3eb07f04b942057f435b74d8a95b764845de5d0ab08e"),
    "sweep-d3-0..1-json": (0, "69425c9174566651d463ec7d9481ef395be0f36eb2e821f551391d44b81d029e"),
    "sweep-d3-0..1-text": (0, "5b404792049506bfc638926ee6691f3a0d1c562d0a35ac857f3ab89bf0a4bdd2"),
    "sweep-d3-1000000000..1000000001-json": (0, "403a75bea37ee25d18c4a152c2c2dacf8c5fd7b7f90921e3b008cf2ee8787609"),
    "sweep-d3-1000000000..1000000001-text": (0, "fd6e6cb071fe4a79a3c6660287c2d53ecaf8991b95593778ab6d305209137409"),
}


def test_the_job_list_is_the_recorded_one(named):
    assert sorted(_jobs(named)) == sorted(DIGESTS)


@pytest.mark.parametrize("job_id", sorted(DIGESTS))
def test_report_digest(named, monkeypatch, capsys, job_id):
    assert run_job(_jobs(named)[job_id], monkeypatch, capsys) == DIGESTS[job_id]
