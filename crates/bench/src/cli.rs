//! Flag-value and output plumbing shared by every bin: a flag missing its
//! value, or carrying one that does not parse, exits 2 naming the flag and
//! what it wanted instead of panicking; so does an output file that cannot
//! be written, naming the path.

use acuerdo::DisseminationMode;
use std::path::Path;
use std::process::exit;
use std::str::FromStr;

/// Write `contents` to `path`, or exit 2 with `"cannot write <path>: <err>"`.
pub fn write(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) {
    let path = path.as_ref();
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        exit(2)
    }
}

fn needs(flag: &str, what: &str) -> ! {
    eprintln!("{flag} needs a {what}");
    exit(2)
}

/// The value following `flag`, or exit 2 with `"<flag> needs a <what>"`.
pub fn value(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    args.next().unwrap_or_else(|| needs(flag, what))
}

/// The value following `--dissemination`: a topology, or `None` for `both`
/// where the bin has rows for each (`allow_both`); anything else exits 2.
pub fn dissemination(
    args: &mut impl Iterator<Item = String>,
    allow_both: bool,
) -> Option<DisseminationMode> {
    let what = if allow_both {
        "mode (star, ring or both)"
    } else {
        "mode (star or ring)"
    };
    let v = value(args, "--dissemination", what);
    match DisseminationMode::from_name(&v) {
        None if !(allow_both && v == "both") => needs("--dissemination", what),
        mode => mode,
    }
}

/// The value following `flag` parsed as `T`, or exit 2 with `"<flag> needs
/// a <what>"`.
pub fn parsed<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> T {
    value(args, flag, what)
        .parse()
        .unwrap_or_else(|_| needs(flag, what))
}
