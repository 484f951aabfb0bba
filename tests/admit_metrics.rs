//! What a traced admit costs in clock reads, and what the metrics fold
//! reads off its span.

use network_entitlement::approval::ApprovalConfig;
use network_entitlement::core::{QosBucket, Quarter};
use network_entitlement::market::{
    generate_storm, AdmitPath, EntitlementMarket, SliceGrid, StormConfig,
};
use network_entitlement::obs::{fold_metrics, Clock, Obs, TraceSink};
use network_entitlement::topology::BackboneSpec;

/// An index-path admit reads its clock exactly twice, traced or not.
/// Traced, the two reads are the `market`/`admit` span's open and
/// close, and the span's `dur_ms` is the latency `last_admit_ms` reads
/// and the folded histogram records; untraced, the market reads the
/// same two instants itself.
#[test]
fn an_index_path_admit_reads_the_clock_twice() {
    let config = ApprovalConfig {
        max_cuts: 1,
        ..Default::default()
    };
    let grid = SliceGrid::quarterly(Quarter(0), 30);
    let mut market = EntitlementMarket::new(BackboneSpec::small(7).build(), grid, config);
    let buckets = QosBucket::approval_order();
    market.warm(&buckets, &Obs::disabled());
    let storm = StormConfig {
        requests: 1,
        ..Default::default()
    };
    let req = generate_storm(&market, &buckets[4..], &storm)[0];
    let traced = Obs::new(Clock::counting(1));
    let untraced = Obs {
        trace: TraceSink::disabled(),
        ..Obs::new(Clock::counting(1))
    };
    for obs in [&traced, &untraced] {
        let before = obs.clock.now_ms();
        assert_eq!(market.admit_obs(&req, obs).path, AdmitPath::Index);
        assert_eq!(obs.clock.now_ms() - before, 1 + 2, "two reads between ours");
        assert_eq!(market.last_admit_ms(), 1.0);
    }
    let events = traced.trace.events();
    assert_eq!(events.len(), 1);
    assert_eq!((events[0].phase.as_str(), events[0].dur_ms), ("admit", 1.0));
    let text = fold_metrics(&events).expect("the admit's span folds");
    assert!(
        text.contains("entitlement_market_admit_ms_sum{path=\"index\"} 1\n"),
        "{text}"
    );
}
