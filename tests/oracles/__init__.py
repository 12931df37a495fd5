"""Reference oracles: the straightforward implementations that optimized
product code is tested against.  They live with the tests, not in ``src/``,
so the product keeps one path per function."""
