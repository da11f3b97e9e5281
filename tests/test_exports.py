import qgas


def test_every_export_resolves_once():
    names = qgas.__all__
    assert len(names) == len(set(names)), sorted(
        n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(qgas, n)]
    assert not missing


def test_one_representation_per_fact():
    # a view is a LabState, an outcome a (probability, state) pair
    for gone in ("ChamberView", "ObserverView", "OutcomeResult"):
        assert not hasattr(qgas, gone)
    assert not hasattr(qgas.LedgerEvent, "isothermal")
