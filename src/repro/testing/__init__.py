"""Test-support code shipped with the package.

Holds the seed engine and the other retired implementations
(:mod:`repro.testing.reference`), the oracles both the test suite and
``scripts/bench.py`` compare the production engines against.  It lives
under ``repro`` (not ``tests/``) because the bench script imports it
too.  Import it by its full name: it depends on the simulator, so this
package re-exports nothing.  Failure tests need no hooks in production
code; they patch the function that should fail, the way
``tests/helpers/parity.py`` patches routes.
"""
