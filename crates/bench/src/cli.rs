//! Flag-value and output plumbing shared by every bin: a flag missing its
//! value, or carrying one that does not parse, exits 2 naming the flag and
//! what it wanted instead of panicking; so does an output file that cannot
//! be written, naming the path.

use acuerdo::DisseminationMode;
use simnet::SchedKind;
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

/// The value following `--dissemination`: a topology; anything else exits
/// 2.
pub fn dissemination(args: &mut impl Iterator<Item = String>) -> DisseminationMode {
    let what = "mode (star or ring)";
    let v = value(args, "--dissemination", what);
    DisseminationMode::from_name(&v).unwrap_or_else(|| needs("--dissemination", what))
}

/// The value following `--sched`: an event queue; anything else exits 2.
pub fn scheduler(args: &mut impl Iterator<Item = String>) -> SchedKind {
    let what = "scheduler (calendar or heap)";
    let v = value(args, "--sched", what);
    SchedKind::from_name(&v).unwrap_or_else(|| needs("--sched", what))
}

/// The value following `flag` parsed as `T`, or exit 2 with `"<flag> needs
/// a <what>"`.
pub fn parsed<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> T {
    value(args, flag, what)
        .parse()
        .unwrap_or_else(|_| needs(flag, what))
}
