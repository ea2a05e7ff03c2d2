//! Fixture integration-test file: the README next to the fixture root
//! cites one test that is here and one that was renamed away.

#[test]
fn still_here() {}

#[test]
fn renamed_to_something_else() {}
