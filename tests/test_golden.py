"""The reports of the shipped instances, pinned by digest.

Every number in `analyze`, `faces` and `strata` output and in the `--dot`
files of the last two is exact, and a `verify` report holds only suite
names, sample counts, verdicts, fixed tolerances and notes, so the stdout
of each command and each DOT file is the same on every platform.  A report
is one line of compact JSON, which must equal its own canonical
re-encoding; its digest is taken of the key-sorted indent-2 text it parses
to, so the table pins the content and the canonical form pins the bytes.
A change that alters any of these must say why and update the digest.  The
orbit verdicts of seeded point pairs on each instance are pinned the same
way, so a change that moves any verdict or its exactness flag must name
it."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from toricq import linalg, serialize
from toricq.cli import main
from toricq.orbits import ExactVector, classify_orbit, equivalent, n_orbit_equal
from toricq.sampling import Sampler
from toricq.serialize import load_instance

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

# extra arguments per command
ARGS = {"verify": ["--samples", "20", "--seed", "7"]}

SHA256 = {
    ("interval", "analyze"): "d9191182ab8ff7e0bab8d6b72de5320dca9bd73d657e7c57caac76383be3fa7f",
    ("interval", "faces"): "a975a936d0c2f0c691a8d7beb53f831106604d54856c2b07bf65f86cc61c6eaf",
    ("interval", "strata"): "2af5fb2b29d86c846fb72b03a1f064aa70bd74b0e497c23db62216e1e05d3e0b",
    ("interval", "verify"): "08ccf2f15ab433ec9ff6d812790c43f4b435cfc5cab3ee71b4faa960c7defaee",
    ("interval_sqrt2", "analyze"): "a06ae7035f8b5bf6c7de574a2e984491422963334920ec4f8f52a9d69971825a",
    ("interval_sqrt2", "faces"): "51cf3801fd0c2b658e414ac66d21fd6065670c7d8095302839ac466a376a0f6c",
    ("interval_sqrt2", "strata"): "2af5fb2b29d86c846fb72b03a1f064aa70bd74b0e497c23db62216e1e05d3e0b",
    ("interval_sqrt2", "verify"): "2ec800ed9ed9c6221be73a09e074904b89bbd39f764686cb09dd4a228c09c0e2",
    ("octahedron", "analyze"): "5b0303c581b6d97de661e57c1a2dbde08ea2c99ce6d0ed56d23b2b4512dfb4d2",
    ("octahedron", "faces"): "1b6e5a6d3edea1559cdc8761ea4710858487362c956d74ddf680fa3682c81546",
    ("octahedron", "strata"): "048a1962a0601ed1c2232bf359dd714ffc89bf21c0390f1f157ed98ea5f544ba",
    ("octahedron", "verify"): "4119cd2a3361e20c2d67697ad705326e354a7bd3f6fc771b150db9b751259b7b",
    ("pyramid4", "analyze"): "ba1d9ceb2c57c4f9f1ff47d31fcb62babe33bae86f6056717d27a8213d7e4021",
    ("pyramid4", "faces"): "be3b7d40a5cb8f5cddfd36f11e4e079d295c647f4ae5f03c9fe190e3b93a5b6e",
    ("pyramid4", "strata"): "6305cd6f70cd4e809c422d3712b93780f115b2c8fff90999a698e603b9d6e705",
    ("pyramid4", "verify"): "f73f672b8021d3d8b0ef3527d324b6fcdc66c8bbdd39c0d1d1b52368e29fb2c8",
    ("pyramid_sqrt2", "analyze"): "0d008e11b7f4994d68aedd3bb0379e7c11edf9b01bdb23d45163b321e1eccc37",
    ("pyramid_sqrt2", "faces"): "b694669c67db0bad5c629b18c962498613f1636f52bf0bcb95c36ebca1f7330e",
    ("pyramid_sqrt2", "strata"): "f69f55b701d90a28ee549606f1fdca0ff2c57e41bb5e00ea27badd1986d56eea",
    ("pyramid_sqrt2", "verify"): "e0c6194645cbde31d2efe8c2e92c0acf261ce0bb516e601a723ba22e1bf3727e",
    ("square_pyramid", "analyze"): "ed4b27c0ed59dd7a219db8c6428a176b0e9b0654656962d5977d6e9a5de3baf9",
    ("square_pyramid", "faces"): "410bbbc1d464d991432121ed97f093e86204ce691c22cf34de07940c753829a7",
    ("square_pyramid", "strata"): "bd0596690ec6ca8a2db64535aa712cd6bb85e4b2fbaefcb37bbd90bea05131da",
    ("square_pyramid", "verify"): "df4f6cb91965a52b0a38df39ea568085291e3b5c9a272eddb89be9ca99088660",
    ("weighted_triangle", "analyze"): "e91cfcd438a3dfdcd22bd05576d1bf43c4eb45f251413a9f56b6104ac939f7ec",
    ("weighted_triangle", "faces"): "b0226ad316433f512aa9a6cde6c648999f7b5f97d3caf5eb2707bc83fb7620db",
    ("weighted_triangle", "strata"): "417eb77ad3d675e974b3eab6c6c710679beb00768b2d5524c891278f54dcf285",
    ("weighted_triangle", "verify"): "3c1080695c4423d7ad96051dda5b1a788a70501e60299da822a07fc0345b5842",
}


# the --dot files of faces and strata
DOT_SHA256 = {
    ("interval", "faces"): "ef0ba91b9d0255755aad315e5dbd231efdb8257540d5da9fe32609808899ffc7",
    ("interval", "strata"): "c6776b13400e977a276b09cebf87a494a99a3f26d8fddbcd5dad490178a50c96",
    ("interval_sqrt2", "faces"): "ef0ba91b9d0255755aad315e5dbd231efdb8257540d5da9fe32609808899ffc7",
    ("interval_sqrt2", "strata"): "c6776b13400e977a276b09cebf87a494a99a3f26d8fddbcd5dad490178a50c96",
    ("octahedron", "faces"): "a3c445d8733d3a4e865d8d6c26c30130d0b8e0d233d19504f13103566ad40811",
    ("octahedron", "strata"): "0d9543c1f80285e6db061dab16d1b96127a1c9538fb1a46458f580f326471341",
    ("pyramid4", "faces"): "ccde1c3bcec01551fb8d633938306c33c19c88d0f1b62a74ad13b367b3973416",
    ("pyramid4", "strata"): "e1f724bbd6bf9466a1681e3794ff231b8271109d9addfbd970e4ffa1653bcbae",
    ("pyramid_sqrt2", "faces"): "2fb5da48dfabe5b09afc798c02e051da7272a333a9f830e3f695363846a7850e",
    ("pyramid_sqrt2", "strata"): "92edd41adce4d32b9325999d5b943476176b04a9c0cccdd70aa8e2be08f15d02",
    ("square_pyramid", "faces"): "2fb5da48dfabe5b09afc798c02e051da7272a333a9f830e3f695363846a7850e",
    ("square_pyramid", "strata"): "92edd41adce4d32b9325999d5b943476176b04a9c0cccdd70aa8e2be08f15d02",
    ("weighted_triangle", "faces"): "bd64cbc996d75908a3b13975fd704f1d507d6abed115615b81f8dbdfbf945e56",
    ("weighted_triangle", "strata"): "9bfb15dc5fc872b0fc90f79c52b70b49957b7db77faf0824f0b11489dc227ff8",
}


def test_every_shipped_instance_is_pinned():
    names = {path.stem for path in INSTANCES.glob("*.json")}
    assert {name for name, _ in SHA256} == names
    assert {command for _, command in SHA256} == {"analyze", "faces",
                                                   "strata", "verify"}
    assert set(DOT_SHA256) == {(name, command) for name in names
                               for command in ("faces", "strata")}


@pytest.mark.parametrize("name,command", sorted(SHA256))
def test_report_digest(name, command, capsys):
    path = str(INSTANCES / f"{name}.json")
    assert main([command, path, *ARGS.get(command, [])]) == 0
    out = capsys.readouterr().out
    # the bytes: one line of the canonical compact form
    assert out == serialize.dumps(json.loads(out))
    assert out.count("\n") == 1 and out.endswith("\n")
    # the content, pinned as the key-sorted indent-2 text it parses to
    indented = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == SHA256[name, command]


@pytest.mark.parametrize("name,command", sorted(DOT_SHA256))
def test_dot_digest(name, command, tmp_path, capsys):
    dot = tmp_path / f"{command}.gv"
    assert main([command, str(INSTANCES / f"{name}.json"), "--dot", str(dot)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == DOT_SHA256[name, command]


# -- orbit verdicts -----------------------------------------------------------

VERDICT_SEED = 11
VERDICT_PAIRS = 5       # pairs of each kind per instance


def _orbit_verdicts(instance) -> list:
    """The (kind, verdict, exactness, reason) of seeded orbit questions.

    Kinds: float pairs moved by a subgroup element or drawn independently;
    exact pairs moved by an exact subgroup angle, by arbitrary sixteenth
    turns, or drawn on another face; mixed pairs (an exact point against
    the complex shadow of its moved copy); and ``n_orbit_equal`` on the
    retracted representatives of the float pairs and on exact zero-level
    points, moved, turned, mixed, or taken at another polytope point.  Float verdicts on
    instances whose quasilattice image is dense come from a rounding
    heuristic and are known to be wrong on some moved pairs; they are
    pinned as they are."""
    p = instance.polytope
    lat = p.face_lattice()
    cfg = instance.solver
    s = Sampler(p, VERDICT_SEED)
    out = []

    def record(kind, v):
        out.append([kind, v.equivalent if hasattr(v, "equivalent") else v.equal,
                    v.exactness, v.reason])

    def turns():
        return [Fraction(s.rng.randint(0, 15), 16) for _ in range(p.d)]

    def zero_level_point(xi):
        # exact zero-level point: the squared moduli are the slacks at xi
        return ExactVector(p.field, [p.slack(xi, j) for j in range(1, p.d + 1)],
                           turns())

    for _ in range(VERDICT_PAIRS):
        z = s.random_admissible_point()
        gz = s.apply(z, *s.nc_pair())
        record("float moved", equivalent(p, z, gz, lat, cfg))
        other = s.random_admissible_point()
        record("float other", equivalent(p, z, other, lat, cfg))
        x = classify_orbit(p, lat, z, cfg).retracted.x
        y = classify_orbit(p, lat, gz, cfg).retracted.x
        record("n float moved", n_orbit_equal(p, x, y))
        record("n float other",
               n_orbit_equal(p, x, classify_orbit(p, lat, other, cfg).retracted.x))
    for _ in range(VERDICT_PAIRS):
        face = s.rng.choice(lat.faces)
        z = s.exact_point_for_face(face)
        gz = z.with_phase_shift(s.n_element())
        record("exact moved", equivalent(p, z, gz, lat, cfg))
        record("exact turned", equivalent(p, z, z.with_phase_shift(turns()),
                                          lat, cfg))
        other = s.exact_point_for_face(s.rng.choice(lat.faces))
        record("exact other", equivalent(p, z, other, lat, cfg))
        record("mixed moved", equivalent(p, z, gz.to_complex(), lat, cfg))
        xi = lat.relint_point(face)
        x = zero_level_point(xi)
        record("n exact moved", n_orbit_equal(p, x, x.with_phase_shift(s.n_element())))
        record("n exact turned", n_orbit_equal(p, x, x.with_phase_shift(turns())))
        record("n mixed moved", n_orbit_equal(
            p, x, x.with_phase_shift(s.n_element()).to_complex()))
        # a second point of the face's relative interior (the first one
        # again when the face is a vertex), and a point of another face
        nearby = linalg.barycenter([xi, lat.vertices_of(face)[0]], p.field)
        record("n exact nearby", n_orbit_equal(p, x, zero_level_point(nearby)))
        elsewhere = lat.relint_point(s.rng.choice(lat.faces))
        record("n exact other", n_orbit_equal(p, x, zero_level_point(elsewhere)))
    return out


VERDICT_SHA256 = {
    "interval": "e04d067ca2c773963703756315232bf455bcaa8b8788e13373bb2180657fedcc",
    "interval_sqrt2": "4450e2e5c05982e7590d9762ecf103fc01cbb15842c116998d84bc31236ccad1",
    "octahedron": "ab250baaea40c1ed2fc37ddecee84af1d6666907cccf1f68a1815c5db8c02deb",
    "pyramid4": "ab049fbd0536c58a19ceb17affaf5c4992f82e035251d6fdd98450f2ca97b0e2",
    "pyramid_sqrt2": "b50cc76c8de75b2fc2c94f88cba132d37385c272eb023f2c088e71854d1b75cc",
    "square_pyramid": "7ebeb47659ba20ab9545535acc2bc503d1d7d9ab9bbe00c2e50c3b741ec67450",
    "weighted_triangle": "c1b149a2ed44a15c9b0049158842c1e7be6ce2c0a11ce209b7a9bbb8dd0c4786",
}


def test_every_shipped_instance_has_pinned_verdicts():
    assert set(VERDICT_SHA256) == {path.stem for path in INSTANCES.glob("*.json")}


@pytest.mark.parametrize("name", sorted(VERDICT_SHA256))
def test_orbit_verdict_digest(name):
    verdicts = _orbit_verdicts(load_instance(str(INSTANCES / f"{name}.json")))
    blob = json.dumps(verdicts, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == VERDICT_SHA256[name]
