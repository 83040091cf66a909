import pytest

from isogauss import prime_context


@pytest.fixture(scope="session")
def ctx3():
    return prime_context(3)


@pytest.fixture(scope="session")
def ctx5():
    return prime_context(5)


@pytest.fixture(scope="session")
def ctx7():
    return prime_context(7)


# every builder of an O(p) object, by the name each module binds it under
O_P_BUILDERS = ("chi_table", "g_star_shape", "g_star_one", "_zero_gaps")


@pytest.fixture
def refuse_o_p_tables(monkeypatch):
    """Every binding of an O(p) builder, in every module of the package,
    raises AssertionError for the rest of the test."""
    from isogauss import cli, counts, cyclotomic, field, formulas, oracle, quadform, verify

    def refuse(*args, **kwargs):
        raise AssertionError("built an O(p) table")

    modules = (cli, counts, cyclotomic, field, formulas, oracle, quadform, verify)
    for name in O_P_BUILDERS:
        bound = [m for m in modules if hasattr(m, name)]
        assert bound, f"no module binds {name}"  # renamed: update O_P_BUILDERS
        for module in bound:
            monkeypatch.setattr(module, name, refuse)
