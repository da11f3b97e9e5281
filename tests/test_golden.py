"""Byte contract: each bundled demo prints exactly the output pinned here, in
both formats.  The hashes are of the raw stdout, views included, so a change
in the eigensolver, the renderer or the number formatting that moves even one
byte fails here."""

import hashlib

import pytest

from qgas import protocol
from qgas.cli import CliConfig, run_command
from qgas.quantum import StatisticalMatrix

GOLDEN = {
    ("perfect-separation", "table"):
        "96d443c6cf1213abbffb6bd1febacd11899eff5e575777ac4e0168b064ac8c2e",
    ("perfect-separation", "records"):
        "74f70eb7342274cedf6b83becf6a1a2c90e2049507b64177cc0f8646d62ed07a",
    ("partial-separation", "table"):
        "fa550703020a073060b2333245090fae0bc9ee16ba9ef27b59a7a957d0160b73",
    ("partial-separation", "records"):
        "649c0422506711571daa50619036012a8fa08a8ec9400e2385d53e016167d9dc",
    ("peres-tatiana", "table"):
        "002e883a6c67551fab26c70223b053e1609a90ffb98b68dae267bccfec13e4ce",
    ("peres-tatiana", "records"):
        "4dc4af11b5b3b82a64e10c96b3f01262067ffc1e00c84856df4b0d5d4da0674c",
    ("peres-willard", "table"):
        "981e97827764f3d63c91a0a271476a2a2787c291fad0dec26cbaafe2aa208753",
    ("peres-willard", "records"):
        "ef3a50807db30c256447aa7c03e01540bd861e3a982b0bc0a54681b97205e6d3",
    ("jaynes-johann", "table"):
        "7ee02d98df9c7f387a62303cb91daae126632e23e2ed7299383ded76751ebf1a",
    ("jaynes-johann", "records"):
        "19ddb3a854edf55886ec15c14ec46da0e4b896557db470e518a94cde646dbff5",
    ("jaynes-marie", "table"):
        "6416d4894df26753c6f931602440b876603267fea078f9580ae682a59e01ddca",
    ("jaynes-marie", "records"):
        "3b611b6ac6c9568d53a3364fd28a9cd0b626a762160706fa8ed47fdd11ea3aa4",
}


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN))
def test_demo_output_is_pinned(name, fmt):
    code, out, err = run_command(CliConfig("demo", name, fmt))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name, fmt]


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN))
def test_states_are_checked_once_at_their_declaration(name, fmt, monkeypatch):
    # only the gas declarations build a state through the full check; every
    # state derived from them, views included, skips it
    checks = []
    post_init = StatisticalMatrix.__post_init__

    def counting_post_init(state):
        checks.append(state)
        post_init(state)

    monkeypatch.setattr(StatisticalMatrix, "__post_init__", counting_post_init)
    code, _, _ = run_command(CliConfig("demo", name, fmt))
    assert code == 0
    ast = protocol.parse(protocol.demo_source(name))
    gases = [d for d in ast.declarations if isinstance(d, protocol.GasDecl)]
    assert len(checks) == len(gases) > 0
