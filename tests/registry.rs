//! Every enum declared through `simnet::registry!`: its `ALL` lists the slots
//! in slot order, no two slots share a name, and `from_name` inverts `name`.

use acuerdo_repro::abcast::{BlameCause, StageClass};
use acuerdo_repro::acuerdo::DisseminationMode;
use acuerdo_repro::bench::chaos::{Proto, Tier};
use acuerdo_repro::simnet::{
    Counter, DurabilityMode, Gauge, MsgKind, SchedKind, SpanStage, WaitReason,
};
use std::collections::HashSet;
use std::fmt::Debug;

fn check<T: Copy + PartialEq + Debug>(
    what: &str,
    all: &[T],
    slot: impl Fn(T) -> usize,
    name: fn(T) -> &'static str,
    from_name: fn(&str) -> Option<T>,
) {
    let mut names = HashSet::new();
    for (i, &v) in all.iter().enumerate() {
        assert_eq!(slot(v), i, "{what}::ALL[{i}] is {v:?}");
        assert!(names.insert(name(v)), "{what}: two slots named {}", name(v));
        assert_eq!(from_name(name(v)), Some(v), "{what}: {v:?}");
    }
    assert_eq!(from_name("no-such-slot"), None, "{what}");
}

macro_rules! check_registries {
    ($($t:ident),+ $(,)?) => {
        $(check(stringify!($t), &$t::ALL, |v: $t| v as usize, $t::name, $t::from_name);)+
    };
}

#[test]
fn every_registry_lists_its_slots_in_order_under_unique_names() {
    check_registries!(
        Counter,
        Gauge,
        MsgKind,
        SpanStage,
        WaitReason,
        SchedKind,
        DurabilityMode,
        BlameCause,
        StageClass,
        DisseminationMode,
        Proto,
        Tier,
    );
}
