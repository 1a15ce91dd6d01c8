//! Integration tests for experiment E3: glue expressiveness (§5.3.2, [5]).

use bip_verify::expressiveness::{
    priorities_express_broadcast, refute_broadcast_with_interactions,
};

/// E3's table: all seven interaction-only glues over the broadcast's ports
/// are checked against its two-state reference LTS, and none is bisimilar.
#[test]
fn interaction_only_glue_cannot_express_broadcast() {
    let r = refute_broadcast_with_interactions();
    assert_eq!((r.glues_checked, r.reference_states), (7, 2));
    assert_eq!(
        r.equivalent_found, 0,
        "the paper's claim: interactions alone lose universal expressiveness"
    );
}

#[test]
fn interactions_plus_priorities_recover_it() {
    assert!(
        priorities_express_broadcast(),
        "BIP glue (interactions + priorities) matches the broadcast semantics"
    );
}
