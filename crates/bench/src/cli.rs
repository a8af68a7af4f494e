//! Flag-value plumbing shared by every bin: a flag missing its value, or
//! carrying one that does not parse, exits 2 naming the flag and what it
//! wanted instead of panicking.

use std::process::exit;
use std::str::FromStr;

fn needs(flag: &str, what: &str) -> ! {
    eprintln!("{flag} needs a {what}");
    exit(2)
}

/// The value following `flag`, or exit 2 with `"<flag> needs a <what>"`.
pub fn value(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    args.next().unwrap_or_else(|| needs(flag, what))
}

/// The value following `flag` parsed as `T`, or exit 2 with `"<flag> needs
/// a <what>"`.
pub fn parsed<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> T {
    value(args, flag, what)
        .parse()
        .unwrap_or_else(|_| needs(flag, what))
}
