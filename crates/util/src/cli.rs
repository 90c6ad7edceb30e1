//! Command-line flag parsing shared by the workspace binaries.

/// Parses the value following `<flag>` (e.g. `--size 8`). A present flag
/// with a missing or unparseable value is an error — `--threads abc` must
/// fail loudly instead of silently falling back to a default.
///
/// # Examples
///
/// ```
/// use pg_util::flag_value;
/// let args: Vec<String> = ["--size", "8", "--seed", "x"].map(String::from).to_vec();
/// assert_eq!(flag_value::<usize>(&args, "--size"), Ok(Some(8)));
/// assert_eq!(flag_value::<usize>(&args, "--threads"), Ok(None));
/// assert!(flag_value::<u64>(&args, "--seed").is_err());
/// ```
pub fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            None => Err(format!("flag `{flag}` expects a value")),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value `{raw}` for `{flag}`")),
        },
    }
}
