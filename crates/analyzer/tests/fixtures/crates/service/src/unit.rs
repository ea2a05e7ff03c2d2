//! Fixture module with unit tests: the README next to the fixture root
//! cites one that is here and one that was renamed away.

#[cfg(test)]
mod tests {
    #[test]
    fn still_here() {}

    #[test]
    fn renamed_to_something_else() {}
}
