"""Stdout of a fixed list of commands, pinned by its sha256.

A change that is meant to leave every printed result alone (a faster
kernel, a new plan) must leave these digests alone too.  A change that
alters stdout on purpose updates the digests in the same commit and says
which commands changed and why.  Each command runs in-process through
``cli.main``; the whole list takes about a second.
"""

import hashlib
from contextlib import redirect_stdout
from io import StringIO

import pytest

from qcong.cli import main

STDOUT_SHA256 = {
    "verify-identity --all":
        "5238356b7a81aac4e31a2ed7673ce0be824d765ea9b9f5cbe22f88adf4275e06",
    "verify-identity --all --json":
        "a6d1f64dfddc568774a5acef9620dd2f9d44d88a46d4a1e5fd053bd360d1590f",
    "verify-theorem --all --json":
        "20141ea039dd7552d18a406608ab51555b2652a2ad07b1ecf51c2b3a4606e653",
    "scan --name B --amax 30 --moduli 2,3,5,7 --nmax 500 --json":
        "ede3dd70c5942d221a96a0041e84b44e628a0065a4da9caa988e89c57eed96b2",
    "scan --name b --amax 30 --moduli 2,3,5,7 --nmax 500 --json":
        "070a9d1270331402b528e7c555260c0ef7e357415b4931fac9b53ed9a055ff63",
    "scan --name p --amax 30 --moduli 2,3,5,7 --nmax 500 --json":
        "12e394ee126849e63dfd11005e256d0aaf322abcd0bd90ff5ad782209949c9ec",
    "scan --name a --amax 30 --moduli 2,3,5,7 --nmax 500 --json":
        "843b473fb832f735f707e83ec80c240d4cf5c90ab9c25bdfd15c8e2b5fa492d8",
    "scan --name abar --amax 30 --moduli 2,3,5,7 --nmax 500 --json":
        "e52b48449a067ad5c8e6d87b69d5a429785e58d23db8888e8a1d1f0ec6c1aba4",
    "expand --name B --mod 9 --order 3000":
        "2492285bbf6993be37c3c87bafd8cfb1fc6c0055b9c0a0da6865993392d71851",
    "expand --name B --mod 630 --order 3000":
        "7aa2a320f03b4ba1816fe11e6c27e3d9ba96456a4a1c9cbc8ba9b57e3eb23abb",
    "expand --name b --mod 9 --order 3000":
        "117611e0a43e629f5a53bff508a4093af99c4c2a6927eb2d64dcfee62d496cfc",
    "expand --name b --mod 630 --order 3000":
        "c27e269c5326d454a3aa986bec7d929bfa16bbb221c80fa0a08d5416e62be62b",
    "expand --name p --mod 9 --order 3000":
        "e84937e6ebf58cc380dafbf547f48e452752411829e5b59191449f37e8ed728a",
    "expand --name p --mod 630 --order 3000":
        "a1598fc06230948c8444ddee44ab78b3575f1d563fecef9857fddc5b448382e8",
    "expand --name a --mod 9 --order 3000":
        "5b11ee98b4019149823b214e96914749299155178132c24aa0d4bcb3616e35b9",
    "expand --name a --mod 630 --order 3000":
        "3c6b527b73ddc90271ed43da45f2925ccae374138ff6a8c7efb75d07ecd8f188",
    "expand --name abar --mod 9 --order 3000":
        "dd2da9556fddb6f0e756dd9c061eb79c70021818d30497303e33300a28dfda43",
    "expand --name abar --mod 630 --order 3000":
        "31e3a3bf0d363390638925a2882e5f931267057bbd9420922b0c4db3df891156",
    "expand --name alpha --mod 9 --order 3000":
        "9e36ffff4ad0de79bc68313f3b2389daf323f58414fd4091dd8a730ab5a51d37",
    "expand --name alpha --mod 630 --order 3000":
        "0ca5e6001a26cab9c45161df734d1b90c8f53b34319a1f8249bfe73a16c33536",
    "expand --name h --mod 9 --order 3000":
        "c967ce9f178b7a5e87af3e802cca6e08cfa8b675a1b6f5b7650654860d423f2e",
    "expand --name h --mod 630 --order 3000":
        "035effc5fb429f672397201538cb881085e7149244d2b05363011178ad80fda0",
    "expand --name pentagonal --mod 9 --order 3000":
        "ec4dfbef97b9ce3e02d6dd046a941009065b401670c1bc4a60e2e11b9085e31f",
    "expand --name pentagonal --mod 630 --order 3000":
        "879e5d1687c5c3fec4cf643e3db0f6bc54adb3112d00c6ab6d6941e75b781f4f",
    "expand --name cube --mod 9 --order 3000":
        "1e9024b7f581eb00558f36a602836a31616cdf1408f4cdbf706831e77e32b5f4",
    "expand --name cube --mod 630 --order 3000":
        "f8b944dc7a06236d1920992bda2d660df1d4c2bd91e2d18067881eecae321231",
    "expand --name triangular --mod 9 --order 3000":
        "aed2b87184e55c2308cd8ebde3fc1f33fa07e85e5beca377e369338996de2320",
    "expand --name triangular --mod 630 --order 3000":
        "aed2b87184e55c2308cd8ebde3fc1f33fa07e85e5beca377e369338996de2320",
    "expand --name slope_3k1 --mod 9 --order 3000":
        "548aa9fed3259a73c6f6b4b2d6ebe905339c5d23b72bd192c66609fda1bb31ad",
    "expand --name slope_3k1 --mod 630 --order 3000":
        "0550d336679af159a78c61a5c60445cfc5b34fc5e6cd945a094ce12e9c538bb5",
    "expand --name slope_6k1 --mod 9 --order 3000":
        "a7b69da344377752c9a390dd363f492453c4cac593057d5137434922b7109115",
    "expand --name slope_6k1 --mod 630 --order 3000":
        "217b12db70dd91413067a089dff6372c9167b696a8b1a55ba5ea41046c0bdd15",
    "expand --name signed_pentagonal --mod 9 --order 3000":
        "bfbe3f16cc4b6488199c6a27f684d7a46e53c7109c21778968d9bf74b7cdf7b7",
    "expand --name signed_pentagonal --mod 630 --order 3000":
        "fe659f848974bb71279a2a1d26538fc294050653c0f00ae9f67a930fdddae7e5",
}


@pytest.mark.parametrize("command", STDOUT_SHA256)
def test_stdout_matches_its_pinned_digest(command):
    out = StringIO()
    with redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[command]
