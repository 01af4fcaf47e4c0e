"""Byte-level pins of the CLI output.

Each row is an argv (split on whitespace), the exit code and the sha256 of
stdout.  The table covers every README example (with `verify` at order 8 and
2 samples per suite instead of `verify all --order 12`), every `family`,
every `assoc` at c = 0, 1 and 3/2, two rejected `--params` keys and one
repeated key (exit 2, empty stdout), and the assoc paths that reuse another
family's operator chain: Wilson at h = 0 (c = 0 and 3/2), Jacobi at c = 2
and the ultraspherical, Jacobi and Wilson c = 1/2 where 1 + lambda (c - 1)
= 0, a `cfrac` recurrence whose zero b ends the continued fraction early,
a Sheffer family at lambda = 0 with a != 0, an associated Jacobi display
whose pole of b_n, at index 18, lies past the working order 14 (exit 0),
and `verify all --order 12` at seeds 0-3 (477, 479, 478 and 477 checks,
none failed), the sweep every change to the engine is gated on.  A
refactor of the construction code must leave all of them unchanged: a
digest that moves means the JSON moved.
"""
import hashlib
import json

import pytest

from umbral.cli import main

GOLDEN = [
    ("family ultraspherical --params lambda=1,a=0,b=1 --order 8", 0, "1d4020ab55f714541ad4a12af3f86bfb29691a6a4babd3734c74c846bbbc2d09"),
    ("family hahn --params lambda=2,a=1/2,s=2", 0, "12a5d0b8e76c34cc859ff0d6273ac639fc916892ce2ca6d2c327edcc17476d6a"),
    ("verify longdiv --samples 3 --seed 7 --order 8", 0, "613f860938d06b9a0b81b415f6fc467335ee8676ba67dcfcee2165e845d382cd"),
    ("cfrac moments2rec {moments} --round-trip", 0, "b23454c9444b9d4f70fd0ace11cfb96fc809266d4642770702006263faf17018"),
    ("cfrac rec2moments {recurrence} --order 12", 0, "ca98c3246f3a7342da5afde50de885bce803bf9ebd3a9e0792850edc0e2c0566"),
    ("assoc jacobi --params lambda=2,a=1/2,r=1 --c 1", 0, "69d00a184a97a1df367d826e92a3a9f7941107f1fa5819e5d27668f1a5bd2771"),
    ("asym falling-factorial --alpha 1/2 --s 40,80 --level 2", 0, "41c5c97b8345475e994b8d38a0f12fed1800cf2a29b68069d9e56815cd2e9387"),
    ("family sheffer --params lambda=1/2,a=1/3,b=2/5 --order 8", 0, "7fbcba1db77e95ecc1386624b97659775b0f0b8c0a7e62e80c57082ab166bc68"),
    ("family sheffer --params lambda=0,a=0,b=1/2 --order 8 --format csv", 0, "198688868195ae149afbbd8fb0ed00b56048f2ae20341af67569083df00ea62c"),
    ("family ultraspherical --params lambda=1/3,a=1/2,b=1/4 --order 8", 0, "92862993853b1877f601cda88ad877e19d49dd183732b8907ec749be83099ce7"),
    ("family hahn --params lambda=2,a=1/2,s=1/2 --order 8", 0, "a831e35b03ea3d456783a6575c2dc1b11a6473dbf4d5650eceee64cf2feac37d"),
    ("family hahn --params lambda=1/2,a=1/3,s=5/2 --order 8", 0, "38fa8c1bca3cb66ba62aa1a593c901b77f3576a4d6fd4ca383cd0c3135cb6490"),
    ("family jacobi --params lambda=1/3,a=2/5,r=3/7 --order 8", 0, "c23106af3562ac8726deaf8fde6ff3d591f43b3663b4de04d2d362faa3f35704"),
    ("family wilson --params lambda=2,a=1/3,r=1/2,rtilde=1/5,h=1/4 --order 8", 0, "9cd5898abb4f1387229e41ddd3d17bf39195aa2efb11d855baccfa52a93ce3a0"),
    ("family wilson --params lambda=1/2,a=1/3,r=1/2,rtilde=1/5,h=0 --order 8", 0, "fddda7db1ce885d75ee450ad1dd007f7cbbd6d34ad84e0ddc42024a27432e628"),
    ("family multiterm --params n=2,lambda=1/2,a=1/3,t0=1/3,t1=2/3 --order 6", 0, "77e8cf4649a131d4b39bb3aaad1b64fb9ae65b9d43b014cd1fe0b9d6989cfb68"),
    ("family multiterm --params n=2,lambda=1/2,a=1/3,t0=1/3,t1=1/3,t2=1/3 --order 6", 0, "859e3c185b0d67ba45dfd0899068062fbe0a544da49bdd798caf8fb307e48500"),
    ("family multiterm --params n=3,lambda=1/2,a=1/3,t0=1/3,t1=1/3,t2=1/3 --order 6", 0, "bcc398066cbe66baa71fd189c41698933ef9228d31a242d06f14bee56b491719"),
    ("assoc sheffer --params lambda=1/2,a=1/3,b=2/5 --c 0 --order 8", 0, "7a7fb41721950b3ec94eb35cd0d406d17adc7ccf6ef663244b0077cd17972fca"),
    ("assoc sheffer --params lambda=1/2,a=1/3,b=2/5 --c 1 --order 8", 0, "f745eba9eb38adfa53b71c193b696600920af151010155143b82aee5d66747b3"),
    ("assoc sheffer --params lambda=1/2,a=1/3,b=2/5 --c 3/2 --order 8", 0, "22a7df77ed3d2f790f00b1ed213d3b4c38ecfae57376584070fddde8cf1e2e6f"),
    ("assoc ultraspherical --params lambda=1/3,a=1/2,b=1/4 --c 0 --order 8", 0, "59c5109d5a5244164ebd3b19c2d0972df9175c8b2f9c08551853b461da4cfd4b"),
    ("assoc ultraspherical --params lambda=1/3,a=1/2,b=1/4 --c 1 --order 8", 0, "718b3a6a586869f53bb27cb963d38253c0627d862cf7b98f12b3a5b67b4a02be"),
    ("assoc ultraspherical --params lambda=1/3,a=1/2,b=1/4 --c 3/2 --order 8", 0, "43915e7ffd33d26afe3ae9172c1cc5875a081a3ca11c1f9f8ddeb60fa0ce390d"),
    ("assoc jacobi --params lambda=1/3,a=2/5,r=3/7 --c 0 --order 8", 0, "806cd55e986944eff04646bdd78df8b6ec744b447658935a54f9e0000a4a1a9e"),
    ("assoc jacobi --params lambda=1/3,a=2/5,r=3/7 --c 1 --order 8", 0, "41f78c65fcc05ef323a6f37bb43591a6102f174df0009e64986ef915045f6638"),
    ("assoc jacobi --params lambda=1/3,a=2/5,r=3/7 --c 3/2 --order 8", 0, "99a5a6bf29aa011ca883d65935cfc02bef53d2ed03ae7e68764bb2675c2e6d86"),
    ("assoc wilson --params lambda=2,a=1/3,r=1/2,rtilde=1/5,h=1/4 --c 0 --order 8", 0, "74ba5ea7203d4d05c713c587cdc2b018e8b7316b7898fa25ffe49eb3cca38a71"),
    ("assoc wilson --params lambda=2,a=1/3,r=1/2,rtilde=1/5,h=1/4 --c 1 --order 8", 0, "7ae64daccbd9ae7bccfd395af7868e57178f17229fd57fbb86fb44e4ea7b66c0"),
    ("assoc wilson --params lambda=2,a=1/3,r=1/2,rtilde=1/5,h=1/4 --c 3/2 --order 8", 0, "590d35dd8d72a573885f1195fc57a3a9e241c44b0c630138820aecbb4bd5a822"),
    ("verify base --order 8 --samples 2", 0, "568c61eec615838f89aa94a5a8065d3a7a75ff4307543e7b5cf7ce1b8b7e2a54"),
    ("verify ultra --order 8 --samples 2", 0, "4656f681c636fe2cbec29b8be495c354d5d9a1623c260cb88fde73247ba7d1c1"),
    ("verify hahn --order 8 --samples 2", 0, "4bbedf542d156574e43e47f2fec258f1b0076a3df36a994d2440efa26aba6af9"),
    ("verify jacobi --order 8 --samples 2", 0, "f6f25bdbb15642564cfc18ff94ac2721d898b0ee7348f9ba368b09eb02347c79"),
    ("verify wilson --order 8 --samples 2", 0, "0e091332d33c0658b4f506811f9c27e1ef272cd51d68d9e92320e8c7e107b082"),
    ("verify assoc --order 8 --samples 2", 0, "2fd6c1fe2e06f149c0041c9f7b00dd369b5b88b9cf3251887e14ab9ead751fd4"),
    ("verify longdiv --order 8 --samples 2", 0, "6cddac34c1da823d25534473a83bac5977af3e8121e80518500e9651686d1691"),
    ("verify binomial --order 8 --samples 2", 0, "87df74bb691f14d49d1a45b0bcb5ac1760703fa91dfbe89f36551df026679703"),
    ("verify duality --order 8 --samples 2", 0, "7e9774dd274de7decac9447901aa91f37873a7f6a70fa65ed0503291fa8f31e6"),
    ("verify multiterm --order 8 --samples 2", 0, "908f3a945d33d8ecc340caab41073a15525b4450c6ad876c3349c26624f0d385"),
    ("verify orthocore --order 8 --samples 2", 0, "70e3e3947ad1e903f56a2c976bc4a4d8887aad095c2cd33268288df69f09c8bb"),
    ("family sheffer --params lamda=1/2,a=1/3,b=2/5 --order 8", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("assoc wilson --params lambda=2,a=1/3,r=1/2,rt=1/5,h=1/4 --c 1 --order 8", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("family sheffer --params lambda=1/2,lambda=1/3,a=1/3,b=2/5 --order 4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("assoc wilson --params lambda=2,a=1/3,r=1/2,rtilde=1/5,h=0 --c 0 --order 8", 0,
     "45d1b4801ab0546628722791bd94fc61b8ea0d37cbe9389e1f5e3b9677b8924b"),
    ("assoc wilson --params lambda=2,a=1/3,r=1/2,rtilde=1/5,h=0 --c 3/2 --order 8", 0,
     "d128bd36327ecf457129b8ace13fbb2e460d74d586d496dab66affa60a6ea735"),
    ("assoc jacobi --params lambda=1/3,a=2/5,r=3/7 --c 2 --order 8", 0,
     "967c9a0a7e07ca8c1d49510cd01babd356dd4678431793efde38ff17c02aeca5"),
    ("assoc ultraspherical --params lambda=2,a=1/2,b=1/8 --c 1/2 --order 8", 0,
     "81db5ca1389460e01c43252ee196f4dbd70f3a68f51e307fc7e744539f325fbf"),
    ("assoc jacobi --params lambda=2,a=1/2,r=1 --c 1/2 --order 8", 0,
     "297e44036f1e5f6f7e16e87d12b0d0d89910552bc46669d99a62676d0f5cc2d8"),
    ("assoc wilson --params lambda=2,a=1/3,r=1/2,rtilde=1/5,h=1/4 --c 1/2 --order 8", 0,
     "857272725e98abe0a90e023b89e73f52af666bc8c8f0eb0f000d14f8ee59e3c7"),
    ("cfrac rec2moments {degenerate} --order 10", 0,
     "e50ccd60d75c4751fd92749e251eb9e92f713078b127b0e46cfd38b58434e7b3"),
    ("family sheffer --params lambda=0,a=1/3,b=1/2 --order 8", 0,
     "cc4fe5496c2320437e848f4e8763fb9134ccf6c98bc794ec346f710889cb06c9"),
    ("assoc jacobi --params lambda=-7/5,a=1/2,r=1/3 --c=-121/7 --order 10", 0,
     "ebf44517512cf2cd20c38a500a17f19b9772b327f62471f2258f80e6f5569119"),
    ("verify all --order 12 --seed 0", 0, "b9da55280db5b62c0940c9837e9e0734c5078820e20ce428324fefe9a2c129e8"),
    ("verify all --order 12 --seed 1", 0, "3de4a9ba2aec36db2dad6bf54830428ea43de1a582c976e8e4d3c9973d5402d6"),
    ("verify all --order 12 --seed 2", 0, "5d04108ceec2ec7e02eb7059cda2a98e1b1460aa20d656a58dba54a19c1ea550"),
    ("verify all --order 12 --seed 3", 0, "ac647354f3ab53f9c36f9241ce48b74f2dc47a0b5e85f905e348b4e1131aca51"),
]


@pytest.fixture
def inputs(tmp_path):
    cats = [1]
    for m in range(7):
        cats.append(sum(cats[i] * cats[m - i] for i in range(m + 1)))
    moments = tmp_path / "moments.json"
    coeffs = [str(cats[i // 2]) if i % 2 == 0 else "0" for i in range(15)]
    moments.write_text(json.dumps({"order": 14, "coeffs": coeffs}))
    rec = tmp_path / "recurrence.json"
    rec.write_text(json.dumps({"a": ["1/2"] * 8, "b": [f"1/{k}" for k in range(1, 8)]}))
    # b_2 = 0 ends the continued fraction early, with trimmed convergents
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps({"a": ["1", "1/2", "3", "1"], "b": ["2", "0", "1"]}))
    return {"{moments}": str(moments), "{recurrence}": str(rec), "{degenerate}": str(degenerate)}


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_cli_output_is_pinned(command, code, digest, inputs, capsys):
    argv = [inputs.get(word, word) for word in command.split()]
    got = main(argv)
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
