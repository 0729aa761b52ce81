"""Golden outputs: the SHA-256 of every file that `poselink.cli.main` writes.

Two small synth scenes with features go through `track` (hungarian and greedy
x every cost, lookback 1 and 3), `eval --report --csv`, `oracle` in each mode
followed by `eval`, and three-threshold sweeps; every file a case writes is
hashed, with the case's stdout, except the run manifests, which hold timings
and versions. The stdout of `scripts/ablations.py --seeds 2 --frames 12` and
the tube labels, overlaps and RoIAlign outputs at seeds 0-2 are pinned too,
with the float.hex of the tracking loss on those labels.

A change that moves an output on purpose updates its hashes in the same commit.
The `feat` and `combined` cases have their own ids because `pairwise_cosine`
sums through BLAS (`a @ b.T`): another BLAS kernel may move a last bit there,
and the failing id then names the cause.
"""

import contextlib
import hashlib
import importlib.util
import io
import pathlib

import numpy as np
import pytest

from poselink import cli, tube
from poselink.model import Box

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ablations.py"

SCENES = {
    "linear": ["--seed", "1", "--frames", "30", "--actors", "4", "--kp-jitter", "2",
               "--fp-rate", "1", "--tp-score", "0.9,1.0", "--feature-dim", "8"],
    "occluded": ["--seed", "2", "--frames", "24", "--actors", "5", "--motion", "sinusoidal",
                 "--occlusion-prob", "0.1", "--kp-jitter", "3", "--box-jitter", "2",
                 "--miss-prob", "0.1", "--fp-rate", "1.5", "--tp-score", "0.9,1.0",
                 "--feature-dim", "6", "--label-every", "2"],
}

TRACK = ["track", "--pred", "pred.json", "--out", "tracked.json"]
EVAL_CSV = ["eval", "--gt", "gt.json", "--pred", "tracked.json",
            "--report", "report.json", "--csv", "report.csv"]


def _sweep(costs):
    return ["sweep", "--gt", "gt.json", "--pred", "pred.json", "--out", "sweep.csv",
            "--thresholds", "0.5,0.9,0.95", "--algos", "hungarian,greedy", "--costs", costs]


# case -> the commands it runs after synth, in order
CASES = {"synth": []}
for _algo in ("hungarian", "greedy"):
    for _cost in ("iou", "pckh", "feat", "combined"):
        for _lookback in ("1", "3"):
            CASES[f"track-{_algo}-{_cost}-lookback{_lookback}"] = [
                TRACK + ["--algo", _algo, "--cost", _cost, "--lookback", _lookback]]
CASES["eval"] = [TRACK, EVAL_CSV]
for _mode in ("assoc", "kpts", "both"):
    CASES[f"oracle-{_mode}"] = [
        TRACK,
        ["oracle", "--mode", _mode, "--gt", "gt.json", "--pred", "tracked.json", "--out", "oracle.json"],
        ["eval", "--gt", "gt.json", "--pred", "oracle.json", "--report", "oracle-report.json"],
    ]
CASES["sweep-iou-pckh"] = [_sweep("iou,pckh")]
CASES["sweep-feat-combined"] = [_sweep("feat,combined")]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_outputs(scene: str, case: str) -> dict[str, str]:
    """{file name: SHA-256} of the files the case writes in the current
    directory, and of its stdout; synth's files count only for the synth case."""
    before = set()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["synth", "--out-gt", "gt.json", "--out-pred", "pred.json"] + SCENES[scene]) == 0
        if case != "synth":
            before = {p.name for p in pathlib.Path().iterdir()}
            stdout.seek(0)
            stdout.truncate()
        for argv in CASES[case]:
            assert cli.main(argv) == 0
    got = {p.name: _sha(p.read_bytes()) for p in sorted(pathlib.Path().iterdir())
           if p.name not in before and not p.name.endswith(".manifest.json")}
    got["stdout"] = _sha(stdout.getvalue().encode())
    return got


def ablations_stdout() -> str:
    spec = importlib.util.spec_from_file_location("ablations", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert module.main(["--seeds", "2", "--frames", "12"]) == 0
    return stdout.getvalue()


def tube_outputs(seed: int) -> dict[str, str]:
    """{output: SHA-256} of the tube kernels on three random 3-frame tubes over
    a 96 x 64 image: anchor labels, tube overlaps and the RoIAlign of each tube;
    and the float.hex of the classification and regression losses of random
    deltas and logits (large enough that some exp underflows) on the labels."""
    rng = np.random.default_rng(seed)
    tubes = []
    for _ in range(3):
        x1, y1 = rng.uniform(0, 60), rng.uniform(0, 40)
        boxes = []
        for _ in range(3):
            x1, y1 = x1 + rng.uniform(-3, 3), y1 + rng.uniform(-3, 3)
            boxes.append(Box(x1, y1, x1 + rng.uniform(10, 40), y1 + rng.uniform(10, 30)))
        tubes.append(tube.Tube(tuple(boxes)))
    anchors = tube.generate_anchors(tube.DEFAULT_GRID, 96, 64, 3)
    volume = tube.FeatureVolume(rng.normal(size=(3, 4, 8, 12)))
    rois = np.stack([tube.spatiotemporal_roi_align(volume, t, 4) for t in tubes])
    labels = tube.assign_anchors(anchors, tubes)
    pred, target = rng.normal(size=(2, len(anchors), 12))
    logits = rng.normal(scale=300.0, size=(len(anchors), 2))
    cls_loss, reg_loss = tube.tracking_loss(pred, target, logits, labels, 3)
    return {
        "labels": _sha(labels.astype(np.int64).tobytes()),
        "overlaps": _sha(np.ascontiguousarray(tube.pairwise_tube_overlap(anchors, tubes)).tobytes()),
        "rois": _sha(rois.tobytes()),
        "cls_loss": cls_loss.hex(),
        "reg_loss": reg_loss.hex(),
    }


# recorded before EvalReport derived its rates from the counts
GOLDEN = {
    "linear/eval": {
        "report.csv": "58a7aad2d22db56193dcf1100806aa2acc6fd38fa4ea19ef55b9cc14fe8e96bf",
        "report.json": "753e4f6062a29e9e660c2ab99709bcf535517a3f4327a316cd933508efc97cec",
        "stdout": "d6025c958138d3fc5733ac3ae24906e82fd4e6f7410363433321043978ff381f",
        "tracked.json": "5aff8302f6f11c9c61066ce785feb35466f03bb60e5ffc5da4f018538615e4f2",
    },
    "linear/oracle-assoc": {
        "oracle-report.json": "3ad851a138ef303ad9da58e1f9dcb34fc8f463618d3f9cce66c67f899cfa7e59",
        "oracle.json": "3c0b63920f534e6b97b80802de5143c12aef058947af1ecccf5c6bcdd93a9152",
        "stdout": "9858a18dedaae7531b0ad0b9fcfa5c545f3d4e4795d113974cebae9ce009fbde",
        "tracked.json": "5aff8302f6f11c9c61066ce785feb35466f03bb60e5ffc5da4f018538615e4f2",
    },
    "linear/oracle-both": {
        "oracle-report.json": "ebe1edc8f395486a11f1a97fa9826bfc9b7cc1ec42649ee9b95af3e8b9604491",
        "oracle.json": "d56fdcb2e01ca75fb7a947cf1f3c6dc8ae0438af7802429e76f5d65cd47f6f09",
        "stdout": "78903d18307008ce2367ccc6f259322929b379bcf6752f2e51d6a24e7685c32d",
        "tracked.json": "5aff8302f6f11c9c61066ce785feb35466f03bb60e5ffc5da4f018538615e4f2",
    },
    "linear/oracle-kpts": {
        "oracle-report.json": "d1cad6c9c4a557546c59d1a4843aa56a4225ea9c8aea64d8637ae4c612033ce2",
        "oracle.json": "170cfe7d2f5dc8e209b2a07ef77d4c4e6545c3567a6ae81811b995f67b4f9e18",
        "stdout": "f7c75a8fbdfd5a3c49d9c5fdc6f1dba2e5df74b0f2c66fb5401b039e99403dbb",
        "tracked.json": "5aff8302f6f11c9c61066ce785feb35466f03bb60e5ffc5da4f018538615e4f2",
    },
    "linear/sweep-feat-combined": {
        "stdout": "547fe4455da2a1fac6e03c8e01d49ed3902cbdf092ff24f41d29510590cc94f7",
        "sweep.csv": "069d9e3ae51e363c3276890bc5f981a635d99163cb3e648fd06d44fa8eed856b",
    },
    "linear/sweep-iou-pckh": {
        "stdout": "547fe4455da2a1fac6e03c8e01d49ed3902cbdf092ff24f41d29510590cc94f7",
        "sweep.csv": "741930f0723eb79b2ef9545067218761c8050e5386fce0d17859292ea1433c2a",
    },
    "linear/synth": {
        "gt.json": "e8520a548ef0ee5bd68b394e257a502f39c078c4943227efa618c2830b53f2e9",
        "pred.json": "7fdde10f7a25581f039198b06697108c9fc635ee9fd92ccb2969d6588623ac8d",
        "stdout": "989e04a58c62f2cde259f18f4d5b63e25860fa761cb3e6758cd61888b1bc08c8",
    },
    "linear/track-greedy-combined-lookback1": {
        "stdout": "b0988b6f8ab5ed2f5967f179afdb7d866d426761337a7e319fe0a75bf2215493",
        "tracked.json": "a02c607238947807e53d7880c68691bb512d24bb965da5ffad27ac66e6f42775",
    },
    "linear/track-greedy-combined-lookback3": {
        "stdout": "a8198923b8e50b7076c9800bbb9157f2ae60878eca7a9a94fd3117e1a78c500d",
        "tracked.json": "da5157c9c564c84e9d5c76e01965b0253e1291c6575c124ea068784dcc818409",
    },
    "linear/track-greedy-feat-lookback1": {
        "stdout": "3acf8558eb635a4e9d1be0890e79d8fa28c2fdf398e2b2a337b4ac2c19f73c6c",
        "tracked.json": "c9ce249708877562bf7dcdf333806c35629e11a7835640551ec09020d4a36c47",
    },
    "linear/track-greedy-feat-lookback3": {
        "stdout": "fe17d3c1bc2bf6e137dc4f8142fa9772df3d44f80735fb3cb8524c2653e57f17",
        "tracked.json": "71421e7257dd67d8ed69051ca77e51e416cad57fcc9a2e0c3ca853c96fcc8d90",
    },
    "linear/track-greedy-iou-lookback1": {
        "stdout": "d89f4a1b7e27fd13a3944689880552a4c50cd1242935a90d69fa896ac3bbe2b3",
        "tracked.json": "5aff8302f6f11c9c61066ce785feb35466f03bb60e5ffc5da4f018538615e4f2",
    },
    "linear/track-greedy-iou-lookback3": {
        "stdout": "47f2cf579c27dc7ec731c4c164ca940ce52af148970564995d41d505f09fe849",
        "tracked.json": "15db9827c998f94d5aa3970c2e36cdc79944720dcdeb77979d23eb5f853a98a5",
    },
    "linear/track-greedy-pckh-lookback1": {
        "stdout": "d89f4a1b7e27fd13a3944689880552a4c50cd1242935a90d69fa896ac3bbe2b3",
        "tracked.json": "5aff8302f6f11c9c61066ce785feb35466f03bb60e5ffc5da4f018538615e4f2",
    },
    "linear/track-greedy-pckh-lookback3": {
        "stdout": "47f2cf579c27dc7ec731c4c164ca940ce52af148970564995d41d505f09fe849",
        "tracked.json": "15db9827c998f94d5aa3970c2e36cdc79944720dcdeb77979d23eb5f853a98a5",
    },
    "linear/track-hungarian-combined-lookback1": {
        "stdout": "b0988b6f8ab5ed2f5967f179afdb7d866d426761337a7e319fe0a75bf2215493",
        "tracked.json": "a02c607238947807e53d7880c68691bb512d24bb965da5ffad27ac66e6f42775",
    },
    "linear/track-hungarian-combined-lookback3": {
        "stdout": "a8198923b8e50b7076c9800bbb9157f2ae60878eca7a9a94fd3117e1a78c500d",
        "tracked.json": "da5157c9c564c84e9d5c76e01965b0253e1291c6575c124ea068784dcc818409",
    },
    "linear/track-hungarian-feat-lookback1": {
        "stdout": "9e462cddbdb36b9f7e35faeb4f2d9cabdd3539aad4318ab204c93e42584ebcbf",
        "tracked.json": "846c48ee819a81fec8ad41946267f1664df0b92e2dbe9ecfdcc94f85daace9d9",
    },
    "linear/track-hungarian-feat-lookback3": {
        "stdout": "fe17d3c1bc2bf6e137dc4f8142fa9772df3d44f80735fb3cb8524c2653e57f17",
        "tracked.json": "71421e7257dd67d8ed69051ca77e51e416cad57fcc9a2e0c3ca853c96fcc8d90",
    },
    "linear/track-hungarian-iou-lookback1": {
        "stdout": "d89f4a1b7e27fd13a3944689880552a4c50cd1242935a90d69fa896ac3bbe2b3",
        "tracked.json": "5aff8302f6f11c9c61066ce785feb35466f03bb60e5ffc5da4f018538615e4f2",
    },
    "linear/track-hungarian-iou-lookback3": {
        "stdout": "47f2cf579c27dc7ec731c4c164ca940ce52af148970564995d41d505f09fe849",
        "tracked.json": "15db9827c998f94d5aa3970c2e36cdc79944720dcdeb77979d23eb5f853a98a5",
    },
    "linear/track-hungarian-pckh-lookback1": {
        "stdout": "d89f4a1b7e27fd13a3944689880552a4c50cd1242935a90d69fa896ac3bbe2b3",
        "tracked.json": "5aff8302f6f11c9c61066ce785feb35466f03bb60e5ffc5da4f018538615e4f2",
    },
    "linear/track-hungarian-pckh-lookback3": {
        "stdout": "47f2cf579c27dc7ec731c4c164ca940ce52af148970564995d41d505f09fe849",
        "tracked.json": "15db9827c998f94d5aa3970c2e36cdc79944720dcdeb77979d23eb5f853a98a5",
    },
    "occluded/eval": {
        "report.csv": "f0e42bb24c1b474564613b70139a6e7c20fdcc885b5cb6ca305f6a978b420999",
        "report.json": "09bf62a6d75547dae5e2bf225a38d6910677e1f529f5b5504929edde63c94b65",
        "stdout": "ab594392d5cf39f71889f282e9a5ebfc43cd572d3458258dcfcb8abcb37ba097",
        "tracked.json": "3c8b8288bd945c700fe3750cc1d10843851a9e4790e95c6260968d1fb58bcd06",
    },
    "occluded/oracle-assoc": {
        "oracle-report.json": "af9678a49d9d17b069851b7dd478cbf3b8d74c32e0873c8b4fcceb2fd8cb4599",
        "oracle.json": "cd68617cb52d5917ea84750674bfa1faae54d9bef34259d62e1b9ace92d0bdc6",
        "stdout": "9683ff13e0c07e1cecbf74b341b7af272e5aeb46e3ce5b8b5df13406b96daa86",
        "tracked.json": "3c8b8288bd945c700fe3750cc1d10843851a9e4790e95c6260968d1fb58bcd06",
    },
    "occluded/oracle-both": {
        "oracle-report.json": "067a95f4ea935325a93ede266991257c378126b10054cffedf233296446a1aff",
        "oracle.json": "68c269e7f86a17c3c3fef4eabb8eb5a31dbb9cd74d924ae6fc400be5ac70d8eb",
        "stdout": "b0fb7f64a2332ed36f7ee1df5c79e831d6de4292c0ae6df0ad33309ac93ce7af",
        "tracked.json": "3c8b8288bd945c700fe3750cc1d10843851a9e4790e95c6260968d1fb58bcd06",
    },
    "occluded/oracle-kpts": {
        "oracle-report.json": "fbb87d017f8f5180755664b33080afa65090600434e06069498eb30f18d5ad2e",
        "oracle.json": "729549b583b583ce27bedd11061bb1d3944aa882a7b3c7cd030dd3ea8b171ad7",
        "stdout": "6e4203ec7dd82859eddc2c37c28c8c1f71b704351295d001250305a9bc51b180",
        "tracked.json": "3c8b8288bd945c700fe3750cc1d10843851a9e4790e95c6260968d1fb58bcd06",
    },
    "occluded/sweep-feat-combined": {
        "stdout": "547fe4455da2a1fac6e03c8e01d49ed3902cbdf092ff24f41d29510590cc94f7",
        "sweep.csv": "34172899ad53d291cf55b64fd4bbaeb42dd89f12ecaf23a1325f5914ecbee191",
    },
    "occluded/sweep-iou-pckh": {
        "stdout": "547fe4455da2a1fac6e03c8e01d49ed3902cbdf092ff24f41d29510590cc94f7",
        "sweep.csv": "80adc24705691d04b268dab1dcb2ee71967c274a105855f43c5a35718a55abda",
    },
    "occluded/synth": {
        "gt.json": "cbfeda017d6acfc53843c34fb823265857d7f94047a685f5d935ef5135f66d43",
        "pred.json": "2af828e34b3e542fc164df536b1902058a5fe6d97497b9326baf8264e4cb2d9e",
        "stdout": "0e2370ff5b9be81ab596f00b48138537b970e6fe32ddb5aead786b1a374d3f02",
    },
    "occluded/track-greedy-combined-lookback1": {
        "stdout": "fcb82dabc12491a5d351023abbc65c9d7297135fe1a04fa518ec449e31421e2f",
        "tracked.json": "c917f1aba32cfba81a08d7b41b37785db601a712f440ced07a0a66c0ab5fa812",
    },
    "occluded/track-greedy-combined-lookback3": {
        "stdout": "773fce7255fafe928e81bac0bc57ebd2aeba972358bb5b65792d7a96cf56c338",
        "tracked.json": "e1d872f8e238d3c42ba75df36fc9055aa4634774da5b6e0c481b031c8b5b232a",
    },
    "occluded/track-greedy-feat-lookback1": {
        "stdout": "d3b7218f07fc3ca4c4d4e582dbe6501ae663124a1138cea38273b7197bacbd18",
        "tracked.json": "f6259726c83aa845340715cbc79f90417c6b6881b90b3d7aeeba6309805fbb8d",
    },
    "occluded/track-greedy-feat-lookback3": {
        "stdout": "fbb1a910ca78188d1338918de42030d1826886cd4468859cd87c7aae3c72474b",
        "tracked.json": "56367659fdc2bd9160d48f116534b3b1872b3ca6666705272e6d940717fc3b12",
    },
    "occluded/track-greedy-iou-lookback1": {
        "stdout": "da8d830457431b84e6d5f6fd68c2a40afd57614505da60a3401f10287dd8edef",
        "tracked.json": "3c8b8288bd945c700fe3750cc1d10843851a9e4790e95c6260968d1fb58bcd06",
    },
    "occluded/track-greedy-iou-lookback3": {
        "stdout": "76327f192a25204d62f9fe05205265d327a69c79eac03a015a40ad76b37ceabb",
        "tracked.json": "8c5b6824e13a0aaa8ea878ee62947eba2f24a5ef042a2ce6065539a7176b4ff7",
    },
    "occluded/track-greedy-pckh-lookback1": {
        "stdout": "da8d830457431b84e6d5f6fd68c2a40afd57614505da60a3401f10287dd8edef",
        "tracked.json": "3c8b8288bd945c700fe3750cc1d10843851a9e4790e95c6260968d1fb58bcd06",
    },
    "occluded/track-greedy-pckh-lookback3": {
        "stdout": "fcb82dabc12491a5d351023abbc65c9d7297135fe1a04fa518ec449e31421e2f",
        "tracked.json": "855262b8c2c1630b1be2b16c0d037a19bb52425bbb1f318d61cedc3c95c48612",
    },
    "occluded/track-hungarian-combined-lookback1": {
        "stdout": "fcb82dabc12491a5d351023abbc65c9d7297135fe1a04fa518ec449e31421e2f",
        "tracked.json": "c917f1aba32cfba81a08d7b41b37785db601a712f440ced07a0a66c0ab5fa812",
    },
    "occluded/track-hungarian-combined-lookback3": {
        "stdout": "773fce7255fafe928e81bac0bc57ebd2aeba972358bb5b65792d7a96cf56c338",
        "tracked.json": "e1d872f8e238d3c42ba75df36fc9055aa4634774da5b6e0c481b031c8b5b232a",
    },
    "occluded/track-hungarian-feat-lookback1": {
        "stdout": "191cb3375bc736b6f496c7b183a79b6e064d73d9334a91d00fdc318254bbac63",
        "tracked.json": "ac32d3c79e44847585f5cf80941bee458a9163f4e85764405084fe1c7eb3bf5a",
    },
    "occluded/track-hungarian-feat-lookback3": {
        "stdout": "0fd278b16e0cbc7a920deeb1de4d87dd90c929b0733bc8469809bfec6d3e5b31",
        "tracked.json": "2921187d69db622fe9919c43554ffb9a8e99b1b254ff55684316a0a3e3a133d4",
    },
    "occluded/track-hungarian-iou-lookback1": {
        "stdout": "da8d830457431b84e6d5f6fd68c2a40afd57614505da60a3401f10287dd8edef",
        "tracked.json": "3c8b8288bd945c700fe3750cc1d10843851a9e4790e95c6260968d1fb58bcd06",
    },
    "occluded/track-hungarian-iou-lookback3": {
        "stdout": "76327f192a25204d62f9fe05205265d327a69c79eac03a015a40ad76b37ceabb",
        "tracked.json": "8c5b6824e13a0aaa8ea878ee62947eba2f24a5ef042a2ce6065539a7176b4ff7",
    },
    "occluded/track-hungarian-pckh-lookback1": {
        "stdout": "da8d830457431b84e6d5f6fd68c2a40afd57614505da60a3401f10287dd8edef",
        "tracked.json": "3c8b8288bd945c700fe3750cc1d10843851a9e4790e95c6260968d1fb58bcd06",
    },
    "occluded/track-hungarian-pckh-lookback3": {
        "stdout": "fcb82dabc12491a5d351023abbc65c9d7297135fe1a04fa518ec449e31421e2f",
        "tracked.json": "855262b8c2c1630b1be2b16c0d037a19bb52425bbb1f318d61cedc3c95c48612",
    },
}

GOLDEN_ABLATIONS = "af0459dae846755b6b4bab46bcb098c3ee76af5111443b08a711f9f62202ead9"

GOLDEN_TUBE = {
    0: {
        "labels": "c0d77ec9b68175d3758d313eb5df397dc81291e1e27d46a510e433213fa1a992",
        "overlaps": "155724ba7726983b0fb60448ed08447f4289a0b3280f81477024e808e5d69868",
        "rois": "bab4a89be013e1c2f3c391aa7f7b08e5817d4492cb36cd09d8552357139a471f",
        "cls_loss": "0x1.57a62050d31c5p+7",
        "reg_loss": "0x1.2bd7081b015f0p+1",
    },
    1: {
        "labels": "4b18011c5782ad85e38138f798fd4e4c84f5f5d9c808081604c46e495f070480",
        "overlaps": "8178f544feadee0a45f7f1d1ab99da636661ed148fdd4af473e48df196fa838f",
        "rois": "4ae05ae45ba0649503ef36cbf9bd3208005387a45919041f89fc9ed996f7c487",
        "cls_loss": "0x1.443f65f3ace6dp+7",
        "reg_loss": "0x1.461de6dd60a9bp+1",
    },
    2: {
        "labels": "81e3599cfc8614b8f2cab0c40ce257f533e7611bc5e55244e384ae9d69baa8cc",
        "overlaps": "6160c2388ec8ef7cb98937939a244e6bc1af2f73d30a9dcab96e709f3caa515c",
        "rois": "0ae90595404fe9cdf56605b9eb242bd93ad3152533993a8a2bcb7ffe3d52577a",
        "cls_loss": "0x1.5353748aa7518p+7",
        "reg_loss": "0x1.23f72cfdf353ep+1",
    },
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_command_outputs_equal_the_golden_hashes(tmp_path, monkeypatch, key):
    scene, case = key.split("/")
    monkeypatch.chdir(tmp_path)  # relative paths, which eval's CSV and stdout name
    assert command_outputs(scene, case) == GOLDEN[key]


def test_ablations_stdout_equals_the_golden_hash():
    assert _sha(ablations_stdout().encode()) == GOLDEN_ABLATIONS


@pytest.mark.parametrize("seed", sorted(GOLDEN_TUBE))
def test_tube_outputs_equal_the_golden_hashes(seed):
    assert tube_outputs(seed) == GOLDEN_TUBE[seed]
