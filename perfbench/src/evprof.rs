//! Reads the event-class table that `mtnet_core::world::evprof::report()`
//! prints when `MTNET_EVPROF` is set.
//!
//! One line per event class that ran: `<Name> <count>  total <s>s  avg <ns>ns`.
//! `avg` is the integer quotient of the class's total nanoseconds by its
//! count, so `count × avg` is low by less than `count` ns; the printed
//! `total` has 1 ms resolution. The true total lies in both intervals, so
//! the reader clamps `total` into `[count × avg, count × (avg + 1))`: the
//! error is below both `count` ns and 0.5 ms.

use std::collections::BTreeMap;

/// Benchmark layer names of the evprof classes, in report order.
pub const CLASSES: [(&str, &str); 9] = [
    ("Pkt", "net.pkt"),
    ("AirDown", "radio.air_down"),
    ("MoveSample", "mobility.move_sample"),
    ("Uplink", "cellularip.uplink"),
    ("LocationTick", "core.location_tick"),
    ("FlowNext", "traffic.flow_next"),
    ("Attach", "core.attach"),
    ("Sweep", "core.sweep"),
    ("Fault", "core.fault"),
];

/// Cumulative handler work of one event class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassTotal {
    pub events: u64,
    pub nanos: f64,
}

/// Parses a report into `layer name → totals`. An unknown class name or a
/// line of another shape is an error, so a format drift cannot go unseen.
pub fn parse(report: &str) -> Result<BTreeMap<&'static str, ClassTotal>, String> {
    let mut out = BTreeMap::new();
    for line in report.lines().filter(|l| !l.trim().is_empty()) {
        let bad = || format!("unrecognised evprof line {line:?}");
        let f: Vec<&str> = line.split_whitespace().collect();
        let [name, count, "total", total, "avg", avg] = f[..] else {
            return Err(bad());
        };
        let layer = CLASSES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, l)| *l)
            .ok_or_else(|| format!("unknown evprof class {name:?}"))?;
        let events: u64 = count.parse().map_err(|_| bad())?;
        let total_s: f64 = total
            .strip_suffix('s')
            .and_then(|t| t.parse().ok())
            .ok_or_else(bad)?;
        let avg: u64 = avg
            .strip_suffix("ns")
            .and_then(|a| a.parse().ok())
            .ok_or_else(bad)?;
        let lo = events as f64 * avg as f64;
        let hi = events as f64 * (avg + 1) as f64;
        let nanos = (total_s * 1e9).clamp(lo, hi);
        if out.insert(layer, ClassTotal { events, nanos }).is_some() {
            return Err(format!("evprof class {name:?} listed twice"));
        }
    }
    Ok(out)
}

/// Per-class work between two cumulative snapshots (the counters are
/// process-global and never reset).
pub fn delta(
    now: &BTreeMap<&'static str, ClassTotal>,
    before: &BTreeMap<&'static str, ClassTotal>,
) -> BTreeMap<&'static str, ClassTotal> {
    now.iter()
        .map(|(name, t)| {
            let b = before.get(name).copied().unwrap_or_default();
            let d = ClassTotal {
                events: t.events - b.events,
                nanos: (t.nanos - b.nanos).max(0.0),
            };
            (*name, d)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from a traced `city` run at the default seed: three
    /// passes, so every count is three times one pass's.
    const CAPTURED: &str = "\
Pkt              93865758  total   13.171s  avg    140ns
AirDown          16189506  total    3.040s  avg    187ns
MoveSample        1080108  total    0.338s  avg    313ns
Uplink             216000  total    0.037s  avg    170ns
LocationTick       108000  total    0.031s  avg    285ns
FlowNext         16508340  total    2.079s  avg    125ns
Attach               2310  total    0.003s  avg   1307ns
Sweep                6480  total    0.015s  avg   2286ns
";

    #[test]
    fn parses_captured_report() {
        let t = parse(CAPTURED).unwrap();
        assert_eq!(t.len(), 8);
        assert_eq!(t["net.pkt"].events, 93_865_758);
        let sum: u64 = t.values().map(|c| c.events).sum();
        assert_eq!(sum, 3 * 42_658_834);
        // A large class: the 1 ms `total` is the finer bound.
        let pkt = t["net.pkt"].nanos;
        assert!((93_865_758.0 * 140.0..=93_865_758.0 * 141.0).contains(&pkt));
        assert!((pkt - 13.171e9).abs() <= 0.5e6);
        // A small class: `count × avg` is the finer bound.
        let attach = t["core.attach"].nanos;
        assert_eq!(attach, 2_310.0 * 1_307.0);
    }

    #[test]
    fn rejects_drift() {
        assert!(parse("Pkt 10 total 0.001s avg 100ns\n").is_ok());
        assert!(parse("Handover 10  total 0.001s  avg 100ns\n").is_err());
        assert!(parse("?  10  total 0.001s  avg 100ns\n").is_err());
        assert!(parse("Pkt 10  total 0.001s  mean 100ns\n").is_err());
        assert!(parse("Pkt ten  total 0.001s  avg 100ns\n").is_err());
        assert!(parse("Pkt 1 total 0.001s avg 1ns\nPkt 1 total 0.001s avg 1ns\n").is_err());
    }

    #[test]
    fn delta_subtracts_snapshots() {
        let a = parse("Pkt 10  total 0.000s  avg 100ns\n").unwrap();
        let b =
            parse("Pkt 30  total 0.000s  avg 100ns\nSweep 2  total 0.000s  avg 50ns\n").unwrap();
        let d = delta(&b, &a);
        assert_eq!(d["net.pkt"].events, 20);
        assert_eq!(d["core.sweep"].events, 2);
    }
}
