//! Metrics as the benchmark prints them: named values with units, the
//! per-layer table of traced runs, and the one-line JSON result.

use crate::layers::Layers;

/// One named metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median of `values` (the mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(ttv_s: f64, replays_per_s: f64, peak_rss_mb: f64, setup_s: f64) -> Vec<Metric> {
    vec![
        m("time_to_verdict_s", ttv_s, "s"),
        m("replays_per_s", replays_per_s, "1/s"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
        m("setup_s", setup_s, "s"),
    ]
}

/// The per-layer metrics of a traced run: one traced exploration's
/// layers, plus the tracing overhead (traced ÷ untraced median time to
/// verdict).
pub fn per_layer(l: &Layers, overhead: f64) -> Vec<Metric> {
    let c = |v: u64| v as f64;
    let schedules = c(l.dpor_runs + l.dpor_cut_runs);
    vec![
        m("vm.replay_s", l.vm_replay_s, "s"),
        m("vm.replays", c(l.vm_replays), "count"),
        m("vm.steps", c(l.vm_steps), "count"),
        m(
            "vm.ns_per_step",
            ratio(l.vm_replay_s * 1e9, c(l.vm_steps)),
            "ns",
        ),
        m("dpor.pick_s", l.dpor_pick_s, "s"),
        m("dpor.picks", c(l.dpor_picks), "count"),
        m("dpor.self_s", l.dpor_self_s, "s"),
        m("dpor.runs", c(l.dpor_runs), "count"),
        m("dpor.cut_runs", c(l.dpor_cut_runs), "count"),
        m("dpor.pruned", c(l.dpor_pruned), "count"),
        m(
            "dpor.useful_frac",
            ratio(c(l.dpor_runs), schedules),
            "ratio",
        ),
        m("statics.relaxed", c(l.statics.relaxed), "count"),
        m("statics.validated", c(l.statics.validated), "count"),
        m("statics.unattributed", c(l.statics.unattributed), "count"),
        m("dag.ingest_s", l.dag_ingest_s, "s"),
        m("dag.shards", c(l.dag_shards), "count"),
        m("dag.shard_nodes", c(l.dag_shard_nodes), "count"),
        m("dag.merge_s", l.dag_merge_s, "s"),
        m("dag.unique_nodes", c(l.dag_unique_nodes), "count"),
        m("dag.tree_nodes", c(l.dag_tree_nodes), "count"),
        m("dag.symbolize_s", l.dag_symbolize_s, "s"),
        m("check.strong_s", l.check_strong_s, "s"),
        m("check.states", c(l.check_states), "count"),
        m("check.memo_hits", c(l.check_memo_hits), "count"),
        m(
            "check.memo_hit_frac",
            ratio(c(l.check_memo_hits), c(l.check_states)),
            "ratio",
        ),
        m("check.conflict_depth", c(l.check_conflict_depth), "count"),
        m("dist.dispatch_s", l.dist_dispatch_s, "s"),
        m("dist.shutdown_s", l.dist_shutdown_s, "s"),
        m("dist.dispatched", c(l.dist_dispatched), "count"),
        m("dist.completed", c(l.dist_completed), "count"),
        m("dist.declined", c(l.dist_declined), "count"),
        m("dist.revoked", c(l.dist_revoked), "count"),
        m("dist.quarantined", c(l.dist_quarantined), "count"),
        m(
            "dist.remote_frac",
            ratio(c(l.dist_remote_schedules), schedules),
            "ratio",
        ),
        m("trace.overhead", overhead, "ratio"),
        m("trace.ttv_s", l.ttv_s, "s"),
        m("trace.layer_sum_s", l.layer_sum_s, "s"),
    ]
}

/// The per-layer table of a traced run: each layer's wall-clock share
/// of the traced time to verdict (thread-time layers divided by the
/// explorer's thread count), with the counts next to it.
pub fn layer_table(l: &Layers, threads: f64, overhead: f64) -> Vec<String> {
    let rows: [(&str, f64, String); 9] = [
        (
            "vm (replay - driver)",
            l.vm_replay_s / threads,
            format!("{} replays, {} steps", l.vm_replays, l.vm_steps),
        ),
        (
            "dpor driver (pick)",
            l.dpor_pick_s / threads,
            format!("{} calls", l.dpor_picks),
        ),
        (
            "dpor self",
            l.dpor_self_s / threads,
            format!(
                "{} runs, {} cut, {} pruned",
                l.dpor_runs, l.dpor_cut_runs, l.dpor_pruned
            ),
        ),
        (
            "dag ingest",
            l.dag_ingest_s / threads,
            format!("{} shards, {} shard nodes", l.dag_shards, l.dag_shard_nodes),
        ),
        (
            "dist dispatch+finish",
            l.dist_dispatch_s / threads + l.dist_shutdown_s,
            format!(
                "{} completed, {} declined, {} quarantined",
                l.dist_completed, l.dist_declined, l.dist_quarantined
            ),
        ),
        ("dag symbolize", l.dag_symbolize_s, String::new()),
        (
            "dag merge",
            l.dag_merge_s,
            format!("{} unique nodes", l.dag_unique_nodes),
        ),
        (
            "check strong",
            l.check_strong_s,
            format!(
                "{} states, {} memo hits, conflict depth {}",
                l.check_states, l.check_memo_hits, l.check_conflict_depth
            ),
        ),
        (
            "statics",
            0.0,
            format!(
                "{} relaxed, {} validated, {} unattributed (counts only)",
                l.statics.relaxed, l.statics.validated, l.statics.unattributed
            ),
        ),
    ];
    let mut out = vec![format!(
        "{:<22} {:>9} {:>7}  counts",
        "layer", "wall_s", "share"
    )];
    let mut sum = 0.0;
    for (name, wall, counts) in rows {
        sum += wall;
        out.push(format!(
            "{name:<22} {wall:>9.4} {:>6.1}%  {counts}",
            100.0 * ratio(wall, l.ttv_s)
        ));
    }
    out.push(format!(
        "{:<22} {sum:>9.4} {:>6.1}%  traced time to verdict {:.4} s; trace.overhead {overhead:.3}",
        "sum",
        100.0 * ratio(sum, l.ttv_s),
        l.ttv_s
    ));
    out
}

/// The result line: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
