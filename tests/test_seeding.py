from selfheal.seeding import derive_seed


def test_deterministic_and_order_sensitive():
    assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")
    assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "ab") != derive_seed(1, "a", "b")


def test_pinned_values():
    # regression pin: every seeded artifact in the package depends on these
    assert derive_seed(0) == 6912158355717386040
    assert derive_seed(20260811, "simulator") == 17474503162903308376
