//! Resource dynamics: sudden capacity drops at sites (§4.2 of the paper).
//!
//! A [`DynamicsTimeline`] is an ordered list of [`DynamicsEvent`]s
//! (capacity drops and recoveries, full site outages, per-link bandwidth
//! degradation) the engine applies at `at_time` through its event queue
//! (`Engine::with_dynamics`). The paper's Fig 11 drop of a fraction `f` of a
//! site's compute and network is `DynamicsChange::Capacity { keep: 1 - f }`.
//! Targets are always computed against the *configured baseline* site, so
//! two events on one site do not compound.

use crate::{Cluster, Site, SiteId};
use serde::{DeError, Deserialize, Map, Serialize, Value};

/// One kind of mid-run resource change at a site.
///
/// Every variant's target configuration is derived from the site's
/// *configured baseline*, never from its current (possibly already
/// degraded) state — applying `Capacity { keep: 0.5 }` twice leaves the
/// site at half capacity, not a quarter.
///
/// Serializes as an internally tagged object (`{"kind": "capacity",
/// "keep": 0.5}`); the impls are hand-written because the vendored serde
/// derive does not cover data-carrying enums.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynamicsChange {
    /// Scale compute slots and both links to `keep` of the baseline
    /// (`0 < keep <= 1`). Slots round down but stay at least one, so a live
    /// site can always run a task.
    Capacity {
        /// Fraction of baseline capacity kept.
        keep: f64,
    },
    /// Scale only the WAN links (`0 <= keep <= 1`); zero stalls flows on
    /// the link until a recovery. Compute slots are untouched.
    Links {
        /// Fraction of baseline uplink kept.
        up_keep: f64,
        /// Fraction of baseline downlink kept.
        down_keep: f64,
    },
    /// Full site outage: zero slots and zero link capacity. Attempts
    /// running at the site fail and re-enter the scheduling pool.
    Outage,
    /// Restore the configured baseline capacities.
    Recover,
}

impl Serialize for DynamicsChange {
    fn to_value(&self) -> Value {
        let (kind, nums): (&str, &[(&str, f64)]) = match *self {
            DynamicsChange::Capacity { keep } => ("capacity", &[("keep", keep)]),
            DynamicsChange::Links { up_keep, down_keep } => {
                ("links", &[("up_keep", up_keep), ("down_keep", down_keep)])
            }
            DynamicsChange::Outage => ("outage", &[]),
            DynamicsChange::Recover => ("recover", &[]),
        };
        let mut map = Map::new();
        map.insert("kind".to_string(), Value::from(kind));
        for &(k, v) in nums {
            map.insert(k.to_string(), Value::from(v));
        }
        Value::Object(map)
    }
}

impl Deserialize for DynamicsChange {
    fn from_value(value: Value) -> Result<Self, DeError> {
        let kind = value
            .get("kind")
            .ok_or_else(|| DeError::custom("dynamics change needs a `kind` field"))?
            .as_str()
            .ok_or_else(|| DeError::custom("`kind` must be a string"))?;
        let num = |field: &str| -> Result<f64, DeError> {
            let v = value
                .get(field)
                .ok_or_else(|| DeError::custom(format!("missing field `{field}`")))?;
            v.as_f64().ok_or_else(|| DeError::expected("number", v))
        };
        match kind {
            "capacity" => Ok(DynamicsChange::Capacity { keep: num("keep")? }),
            "links" => Ok(DynamicsChange::Links {
                up_keep: num("up_keep")?,
                down_keep: num("down_keep")?,
            }),
            "outage" => Ok(DynamicsChange::Outage),
            "recover" => Ok(DynamicsChange::Recover),
            other => Err(DeError::custom(format!(
                "unknown dynamics change kind `{other}` (capacity, links, outage, recover)"
            ))),
        }
    }
}

/// One timed resource-dynamics event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicsEvent {
    /// Site the change applies to.
    pub site: SiteId,
    /// Simulation time at which the change takes effect, in seconds.
    pub at_time: f64,
    /// What changes.
    pub change: DynamicsChange,
}

impl DynamicsEvent {
    /// Creates a validated event.
    ///
    /// # Panics
    ///
    /// Panics when [`DynamicsEvent::validate`] would reject the event.
    pub fn new(site: SiteId, at_time: f64, change: DynamicsChange) -> Self {
        let ev = Self {
            site,
            at_time,
            change,
        };
        if let Err(e) = ev.validate() {
            panic!("invalid dynamics event: {e}");
        }
        ev
    }

    /// Checks the event's numeric ranges (deserialized events bypass
    /// [`DynamicsEvent::new`], so loaders call this explicitly).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.at_time.is_finite() && self.at_time >= 0.0) {
            return Err(format!("at_time {} must be finite and >= 0", self.at_time));
        }
        match self.change {
            DynamicsChange::Capacity { keep } => {
                if !(keep > 0.0 && keep <= 1.0) {
                    return Err(format!("capacity keep {keep} must be in (0, 1]"));
                }
            }
            DynamicsChange::Links { up_keep, down_keep } => {
                for (name, k) in [("up_keep", up_keep), ("down_keep", down_keep)] {
                    if !(0.0..=1.0).contains(&k) {
                        return Err(format!("links {name} {k} must be in [0, 1]"));
                    }
                }
            }
            DynamicsChange::Outage | DynamicsChange::Recover => {}
        }
        Ok(())
    }

    /// The site configuration in force once this event applies, derived
    /// from the configured `baseline`.
    pub fn target(&self, baseline: &Site) -> Site {
        let scaled = |keep: f64| Site {
            name: baseline.name.clone(),
            slots: ((baseline.slots as f64 * keep).floor() as usize).max(1),
            up_gbps: baseline.up_gbps * keep,
            down_gbps: baseline.down_gbps * keep,
        };
        match self.change {
            DynamicsChange::Capacity { keep } => scaled(keep),
            DynamicsChange::Links { up_keep, down_keep } => Site {
                name: baseline.name.clone(),
                slots: baseline.slots,
                up_gbps: baseline.up_gbps * up_keep,
                down_gbps: baseline.down_gbps * down_keep,
            },
            DynamicsChange::Outage => Site {
                name: baseline.name.clone(),
                slots: 0,
                up_gbps: 0.0,
                down_gbps: 0.0,
            },
            DynamicsChange::Recover => baseline.clone(),
        }
    }
}

/// An ordered schedule of mid-run resource changes.
///
/// Events are kept sorted by `at_time`; same-instant events preserve their
/// insertion order, so a run replaying a timeline is deterministic.
///
/// Serializes transparently as the JSON array of its events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynamicsTimeline {
    events: Vec<DynamicsEvent>,
}

impl Serialize for DynamicsTimeline {
    fn to_value(&self) -> Value {
        self.events.to_value()
    }
}

impl Deserialize for DynamicsTimeline {
    fn from_value(value: Value) -> Result<Self, DeError> {
        // Deserialized timelines skip the constructor's validation (loaders
        // call `validate_for`) but still sort, preserving the ordering
        // invariant.
        let mut tl = Self {
            events: Vec::<DynamicsEvent>::from_value(value)?,
        };
        tl.sort();
        Ok(tl)
    }
}

impl DynamicsTimeline {
    /// Builds a timeline, sorting events by time (stable, so same-instant
    /// events keep their given order).
    ///
    /// # Panics
    ///
    /// Panics if any event fails [`DynamicsEvent::validate`].
    pub fn new(events: Vec<DynamicsEvent>) -> Self {
        let mut tl = Self { events };
        for ev in &tl.events {
            if let Err(e) = ev.validate() {
                panic!("invalid dynamics event: {e}");
            }
        }
        tl.sort();
        tl
    }

    /// Appends an event, keeping the timeline sorted.
    pub fn push(&mut self, ev: DynamicsEvent) {
        if let Err(e) = ev.validate() {
            panic!("invalid dynamics event: {e}");
        }
        self.events.push(ev);
        self.sort();
    }

    /// Merges another timeline into this one.
    pub fn extend(&mut self, other: DynamicsTimeline) {
        self.events.extend(other.events);
        self.sort();
    }

    fn sort(&mut self) {
        self.events.sort_by(|a, b| a.at_time.total_cmp(&b.at_time));
    }

    /// The events in time order.
    pub fn events(&self) -> &[DynamicsEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates every event against a cluster (site indices in range,
    /// numeric ranges) — the checked entry point for deserialized
    /// timelines.
    pub fn validate_for(&self, cluster: &Cluster) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            ev.validate().map_err(|e| format!("event {i}: {e}"))?;
            if ev.site.index() >= cluster.len() {
                return Err(format!(
                    "event {i}: site {} out of range (cluster has {} sites)",
                    ev.site.index(),
                    cluster.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capacity(keep: f64) -> DynamicsEvent {
        DynamicsEvent::new(SiteId(0), 10.0, DynamicsChange::Capacity { keep })
    }

    #[test]
    fn degradation_scales_all_capacities() {
        let g = capacity(0.7).target(&Site::new("x", 100, 2.0, 4.0));
        assert_eq!(g.slots, 70);
        assert!((g.up_gbps - 1.4).abs() < 1e-12);
        assert!((g.down_gbps - 2.8).abs() < 1e-12);
    }

    #[test]
    fn slots_never_drop_to_zero() {
        let g = capacity(0.1).target(&Site::new("x", 1, 2.0, 4.0));
        assert_eq!(g.slots, 1);
    }

    #[test]
    fn timeline_sorts_by_time_and_keeps_tie_order() {
        let tl = DynamicsTimeline::new(vec![
            DynamicsEvent::new(SiteId(1), 5.0, DynamicsChange::Recover),
            DynamicsEvent::new(SiteId(0), 1.0, DynamicsChange::Outage),
            DynamicsEvent::new(SiteId(2), 5.0, DynamicsChange::Outage),
        ]);
        let times: Vec<f64> = tl.events().iter().map(|e| e.at_time).collect();
        assert_eq!(times, vec![1.0, 5.0, 5.0]);
        // Same-instant events keep insertion order (site 1 before site 2).
        assert_eq!(tl.events()[1].site, SiteId(1));
        assert_eq!(tl.events()[2].site, SiteId(2));
    }

    #[test]
    fn targets_derive_from_baseline_not_current_state() {
        let base = Site::new("x", 10, 2.0, 4.0);
        let half = DynamicsEvent::new(SiteId(0), 1.0, DynamicsChange::Capacity { keep: 0.5 });
        let t = half.target(&base);
        assert_eq!(t.slots, 5);
        assert!((t.up_gbps - 1.0).abs() < 1e-12);
        // Applying the same event's target again from the baseline yields
        // the same configuration — no compounding.
        assert_eq!(half.target(&base), t);
    }

    #[test]
    fn outage_zeroes_and_recover_restores() {
        let base = Site::new("x", 10, 2.0, 4.0);
        let out = DynamicsEvent::new(SiteId(0), 1.0, DynamicsChange::Outage).target(&base);
        assert_eq!(out.slots, 0);
        assert_eq!(out.up_gbps, 0.0);
        assert_eq!(out.down_gbps, 0.0);
        let rec = DynamicsEvent::new(SiteId(0), 2.0, DynamicsChange::Recover).target(&base);
        assert_eq!(rec, base);
    }

    #[test]
    fn links_change_keeps_slots_and_allows_zero() {
        let base = Site::new("x", 10, 2.0, 4.0);
        let ev = DynamicsEvent::new(
            SiteId(0),
            1.0,
            DynamicsChange::Links {
                up_keep: 0.0,
                down_keep: 0.25,
            },
        );
        let t = ev.target(&base);
        assert_eq!(t.slots, 10);
        assert_eq!(t.up_gbps, 0.0);
        assert!((t.down_gbps - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timeline_serde_roundtrip() {
        let tl = DynamicsTimeline::new(vec![
            DynamicsEvent::new(SiteId(0), 10.0, DynamicsChange::Capacity { keep: 0.5 }),
            DynamicsEvent::new(SiteId(1), 20.0, DynamicsChange::Outage),
            DynamicsEvent::new(SiteId(1), 30.0, DynamicsChange::Recover),
            DynamicsEvent::new(
                SiteId(2),
                40.0,
                DynamicsChange::Links {
                    up_keep: 0.1,
                    down_keep: 1.0,
                },
            ),
        ]);
        let json = serde_json::to_string(&tl).unwrap();
        assert!(json.contains("\"kind\":\"outage\""), "json: {json}");
        let back: DynamicsTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tl);
    }

    #[test]
    fn validate_for_rejects_bad_sites_and_ranges() {
        let c = Cluster::new(vec![Site::new("a", 1, 1.0, 1.0)]);
        let tl = DynamicsTimeline::new(vec![DynamicsEvent::new(
            SiteId(3),
            1.0,
            DynamicsChange::Outage,
        )]);
        assert!(tl.validate_for(&c).unwrap_err().contains("out of range"));
        // A deserialized timeline can carry out-of-range numbers; validate
        // catches them even though the constructor was bypassed.
        let bad: DynamicsTimeline = serde_json::from_str(
            r#"[{"site":0,"at_time":1.0,"change":{"kind":"capacity","keep":1.5}}]"#,
        )
        .unwrap();
        assert!(bad.validate_for(&c).is_err());
    }

    #[test]
    #[should_panic(expected = "keep")]
    fn rejects_zero_capacity_keep() {
        DynamicsEvent::new(SiteId(0), 0.0, DynamicsChange::Capacity { keep: 0.0 });
    }
}
