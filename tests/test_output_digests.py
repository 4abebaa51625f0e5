"""Every default `verify` suite and `table`, in text, JSON and CSV, pinned by
the sha256 digest of its output.

Run times are masked before hashing: the `(N instances, X.XXs)` time in the
text header and every `elapsed_s` in the JSON document (set to 0).  Any other
change to a verdict, detail, params dict or row changes a digest.
"""

import contextlib
import hashlib
import io
import json
import re

import pytest

from tsslab.cli import main
from tsslab.verify import THEOREMS

FORMATS = ("text", "json", "csv")

SUITE_DIGESTS = {
    "abelian": {
        "text": "3bede5245a9db12f7114202be9feeedffec2977b0c7c89207acbeed092333b97",
        "json": "bec0d507a3983a03703221e828c897777aa64b873f1d6d7033b7d73afb874e35",
        "csv": "c87ed4415771043fabfec44531cdea90f88a88f768e368963154498a6f8a65da",
    },
    "dihedral": {
        "text": "a36e90c0364101b9aed1344969872279d89dc9915caa8c21dce1ad7acf456abb",
        "json": "8aab8db0daa6a3d4aa4808d5f1c86bd251a6d05ce05e433e0b3afa1dceb9f4ee",
        "csv": "ccb3c66ae9d936ceb14e61cd8e67db4b7b87386c8cec163c7a7c3d56d36ae372",
    },
    "semidirect": {
        "text": "7903b4156cb6b5299412d448c12701b05bd3fce2225532268804eee182c37668",
        "json": "0362a925468160021577793aef3f992fe3ba8f696da4471e1a08cd9d7e9e714e",
        "csv": "286403dbde19c41985ed5eb494bd737c93a21cae36b574347cbfa9aa81eb318f",
    },
    "direct-product": {
        "text": "37316403c9875d7d3838255e7ed83cb4aed32d9ab0162122b826334f8718cfa9",
        "json": "ee7e1f17eed0bae7f8caf6aa8b689e8ea4a2c4d3f3d0ce038f1d49a5e0ca0e4f",
        "csv": "43482e0084a748fa2fd9afd934b1c6747ddf0934f4973f1cc7d14035d80490a0",
    },
    "free-product": {
        "text": "0f5c056ed16d8f23db9fb87f8ac0f4b1a02b14ea08b1aa28e06f31b5e3b6a6e8",
        "json": "d954beef3d41bd3f2349b759db84c5bda5ba963b3f1da527dd0e2c031cc60509",
        "csv": "3bc3ab5cd14ac990d5346321058e7b2f3aeaf2bcf440e4a07fbb2f5f5d3e6d12",
    },
    "inverse-pair": {
        "text": "ff0451cdc750b319d750e707fcb799b178f05ee18c03d5340ade6f29ae6cd20b",
        "json": "ba51378db0d4264de91e74bc1ead3ede6ce7f04fa9fe2763c058c73d5f96843a",
        "csv": "af79a55e8ded5536a9d79c7b5bd80818c69388e7dab3adbbc123dfbfd2148083",
    },
    "odd-order": {
        "text": "e8a114aee3e25e73eb5360b8cb99fc0ff6256ec2c011fd31ce3e5b303bd8a99c",
        "json": "d83a23d080ef46cead3dbc80f70797b9e0900acc3aded5acd4c5be9737792717",
        "csv": "7662d73997db13c73aa63d1501e62e6610fc478d2c334742bc56e94f5df857d4",
    },
    "solvable": {
        "text": "68b21f6c56304a77e572d19d01f01f54737cd92a8d63bfcdf784ddf8c0e28deb",
        "json": "ae88ac4c6ac086ac916304ebe2302d0f3b113a885a66ca52793608636d8ea030",
        "csv": "751d73b22c77e28704eeb9dd8dd301ea184f99f83c5216cb55f38e3912c31a41",
    },
    "stabilizer-ses": {
        "text": "c36e60f51e30dad7702c9aab4e1d63605e3a32d2cfd93cbcb976cce3c5d3545b",
        "json": "3285504b5326ba62cf7338d637f3debdc2072c9c808893299e75e3e1faafd8ad",
        "csv": "54c6032b81af0775201c3642d6ff17cdc018e1e9cebed7ddda2b8a057d7a373d",
    },
    "fundamental-lemma": {
        "text": "86ebe48f3228426b12c6f7c8304eaf55ac63b64d294553b518269107c6717f75",
        "json": "63a7a095555388d6d1656b3cf2289a827b811a43321538f4fa1b4575015b97ab",
        "csv": "a8bfab914c1da5e12d201ae539601729b69518eb15d227bcec5ac3f610b4db92",
    },
    "no-injection": {
        "text": "00d3cde5bc12903a5cb0569da0256fc748d160dbc7bcb0ecc2a8aba0604761b4",
        "json": "2af3d0e525f9bd36741296a0b29e8812bd89f8023b9c03a7dd100d2f64047aa3",
        "csv": "5dacd1620799df82295d5869fa29830a801f9fecd86500f8ec204b12e10bb7fd",
    },
    "braid-corollary": {
        "text": "698d4c571c95bf817c9bf51ee5e53b96074e333f1c65730b78987bbc389a1abd",
        "json": "14d61be6ca7577d2cff7e445b1b95f23cd5f86c56cff3f626630521ee7e4d1d4",
        "csv": "baae51ea0ecc68bee05f641cc60b3ab09dffdb28a712331bd23025a29e714953",
    },
    "free-group": {
        "text": "d41f7bbcef3576555493641d0c2c6efe347f2948fe1063befbe7e43efebfc680",
        "json": "09186f20cf645c0e7faad015e08653e372e35df59789c2b9a756359a5fa1fa84",
        "csv": "7b576c558c4b69ee117ddbc150ecb86661da0c159d7df0dfc80a70b153163bd1",
    },
    "baumslag-solitar": {
        "text": "18816b24c56dc7e7d19fd8c187f574fc5c75970c96b158f596bc1d4708f19ccd",
        "json": "edf01697c28664ac85ab897074f7c36add437eec548c7ef3004721736649558b",
        "csv": "4f33d7d1ef1b15bd575d9b4b38411887c08be50068e9faf3985cf86920e88cb3",
    },
    "oracle": {
        "text": "64d30498fd66e5ce3d024dedb1b10958283ff66d1fdead311b69b326da5adf93",
        "json": "791e945b31c755fc49cac99c8fcc99c3d9eae0e59dd8b01a44ae5b317b4781a6",
        "csv": "d1fc825e808133d4321bfa34795047b0114859402439f061c0c6aaf5035dc5de",
    },
}

TABLE_DIGESTS = {
    "text": "848ae45572eb3e90c143c2b0ba1f6feeb6fe414b503a2665c53f87d57b38d44a",
    "json": "70079992ec3c2b24460d015a70b0c274659f3dbc25463b842a1d50f247c7f375",
    "csv": "0437c9a23945daa45bc4c7b653fa1be477772b3635cbfaf35bc09c0de2bd8edb",
}


def _mask_times(fmt, out):
    if fmt == "text":
        return re.sub(r"^(theorem .*\(\d+ instances, )\d+\.\d\ds\)$", r"\1X.XXs)", out,
                      count=1, flags=re.M)
    if fmt == "json":
        doc = json.loads(out)
        if "elapsed_s" in doc:
            doc["elapsed_s"] = 0
            for inst in doc["instances"]:
                inst["elapsed_s"] = 0
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return out


def digest(fmt, *argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--format", fmt, *argv])
    assert code == 0
    return hashlib.sha256(_mask_times(fmt, buf.getvalue()).encode()).hexdigest()


def test_every_suite_is_pinned():
    assert set(SUITE_DIGESTS) == set(THEOREMS)


@pytest.mark.parametrize("theorem", sorted(SUITE_DIGESTS))
@pytest.mark.parametrize("fmt", FORMATS)
def test_default_suite(theorem, fmt):
    assert digest(fmt, "verify", theorem) == SUITE_DIGESTS[theorem][fmt]


@pytest.mark.parametrize("fmt", FORMATS)
def test_table(fmt):
    assert digest(fmt, "table") == TABLE_DIGESTS[fmt]
