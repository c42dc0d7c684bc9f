//! Deterministic fault injection: serializable fault plans and the
//! precomputed per-epoch schedule both execution engines apply.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s — kill a link or a
//! router at a cycle — plus an [`InFlightPolicy`] deciding what happens
//! to traffic already in the network when a fault strikes. The plan
//! rides on [`crate::SimConfig`], so it folds into sweep-plan and
//! cell-cache fingerprints like every other configuration axis, and an
//! empty plan is the default that leaves every existing output
//! bit-identical.
//!
//! At simulation time the plan is compiled once into a
//! [`FaultSchedule`]: one epoch per distinct fault cycle, carrying the
//! cumulative dead-element masks, the routes recomputed over the
//! surviving subgraph (via [`shg_topology::routing::degraded_routes_with_components`],
//! with the base table's VC-class count so the virtual-channel
//! partition never moves), and the surviving-component map that gates
//! injection of unroutable packets, which [`crate::Network`] replays.

use serde::Serialize;

use shg_topology::routing::{self, Routes};
use shg_topology::{Link, TileId, Topology};

/// What a single fault event kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultKind {
    /// Kill the bidirectional link between two tiles (both directed
    /// channels stop accepting and advancing flits).
    Link(u32, u32),
    /// Kill a router: every incident channel dies and the tile stops
    /// injecting and ejecting.
    Router(u32),
}

impl FaultKind {
    /// Canonicalizes link endpoints (`a < b`) so duplicate detection and
    /// the wire form are order-independent.
    #[must_use]
    pub fn canonical(self) -> Self {
        match self {
            Self::Link(a, b) if a > b => Self::Link(b, a),
            other => other,
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FaultEvent {
    /// The cycle at the top of which the fault strikes (before that
    /// cycle's injection phase).
    pub cycle: u64,
    /// What dies.
    pub kill: FaultKind,
}

/// What happens to flits already in the network when a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum InFlightPolicy {
    /// All in-flight traffic is discarded at the fault epoch (the
    /// pessimistic model: a fault invalidates the transient state of
    /// the whole fabric). Packets created in the measurement window
    /// count as dropped.
    #[default]
    Drop,
    /// Only flits buffered *in* a killed router are lost; everything
    /// else keeps flowing on the recomputed routes. Flits that arrive
    /// at a dead channel are sunk (with credits returned upstream so
    /// senders drain), and packets whose destination became unreachable
    /// are sunk at their next allocation.
    Drain,
}

/// A deterministic, serializable fault-injection plan.
///
/// # Examples
///
/// ```
/// use shg_sim::{FaultKind, FaultPlan, InFlightPolicy};
///
/// let plan = FaultPlan::parse("drain,2000:link:3-4,2500:router:9").unwrap();
/// assert_eq!(plan.policy, InFlightPolicy::Drain);
/// assert_eq!(plan.events.len(), 2);
/// assert_eq!(plan.events[0].kill, FaultKind::Link(3, 4));
/// assert_eq!(plan.to_string(), "drain,2000:link:3-4,2500:router:9");
/// assert!(FaultPlan::parse("x:link:0-1").is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct FaultPlan {
    /// The fault events, sorted by cycle.
    pub events: Vec<FaultEvent>,
    /// What happens to in-flight traffic at each fault epoch.
    pub policy: InFlightPolicy,
}

impl FaultPlan {
    /// `true` if the plan schedules no faults (the default, whose
    /// simulation path is bit-identical to a fault-free build).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parses the whitespace-free wire form carried by `--faults` flags
    /// and `faults=` request params: an optional leading `drop`/`drain`
    /// policy token followed by comma-separated `CYCLE:link:A-B` /
    /// `CYCLE:router:R` events. The empty string is the empty plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token. Range checks
    /// against a concrete topology happen in [`FaultPlan::validate`].
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        if spec.is_empty() {
            return Ok(plan);
        }
        let mut tokens = spec.split(',').peekable();
        match tokens.peek() {
            Some(&"drop") => {
                tokens.next();
            }
            Some(&"drain") => {
                plan.policy = InFlightPolicy::Drain;
                tokens.next();
            }
            _ => {}
        }
        for token in tokens {
            let usage =
                || format!("bad fault event '{token}' (expected CYCLE:link:A-B or CYCLE:router:R)");
            let mut parts = token.splitn(3, ':');
            let cycle_text = parts.next().ok_or_else(usage)?;
            let cycle: u64 = cycle_text.parse().map_err(|_| {
                format!("bad fault cycle '{cycle_text}' in '{token}' (expected an integer cycle)")
            })?;
            let kind = parts.next().ok_or_else(usage)?;
            let target = parts.next().ok_or_else(usage)?;
            let kill = match kind {
                "link" => {
                    let (a, b) = target.split_once('-').ok_or_else(usage)?;
                    let a: u32 = a.parse().map_err(|_| usage())?;
                    let b: u32 = b.parse().map_err(|_| usage())?;
                    if a == b {
                        return Err(format!(
                            "bad fault event '{token}': a link needs two distinct endpoints"
                        ));
                    }
                    FaultKind::Link(a, b).canonical()
                }
                "router" => FaultKind::Router(target.parse().map_err(|_| usage())?),
                _ => return Err(usage()),
            };
            plan.events.push(FaultEvent { cycle, kill });
        }
        plan.events.sort_by_key(|e| e.cycle);
        Ok(plan)
    }

    /// Checks the plan against a concrete topology: router and link ids
    /// in range, killed links actually present, and no element killed
    /// twice.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid event.
    pub fn validate(&self, topology: &Topology) -> Result<(), String> {
        let n = topology.num_tiles();
        let mut seen = std::collections::BTreeSet::new();
        for event in &self.events {
            let kill = event.kill.canonical();
            match kill {
                FaultKind::Router(r) => {
                    if r as usize >= n {
                        return Err(format!(
                            "fault router {r} out of range (topology has {n} tiles)"
                        ));
                    }
                }
                FaultKind::Link(a, b) => {
                    if a as usize >= n || b as usize >= n {
                        return Err(format!(
                            "fault link {a}-{b} out of range (topology has {n} tiles)"
                        ));
                    }
                    if !topology.has_link(TileId::new(a), TileId::new(b)) {
                        return Err(format!("no link {a}-{b} in {topology}"));
                    }
                }
            }
            if !seen.insert(format!("{kill:?}")) {
                let what = match kill {
                    FaultKind::Link(a, b) => format!("link {a}-{b}"),
                    FaultKind::Router(r) => format!("router {r}"),
                };
                return Err(format!("duplicate kill of {what} in fault plan"));
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for FaultPlan {
    /// The canonical wire form (round-trips through [`FaultPlan::parse`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sep = "";
        if self.policy == InFlightPolicy::Drain {
            f.write_str("drain")?;
            sep = ",";
        }
        for event in &self.events {
            match event.kill.canonical() {
                FaultKind::Link(a, b) => write!(f, "{sep}{}:link:{a}-{b}", event.cycle)?,
                FaultKind::Router(r) => write!(f, "{sep}{}:router:{r}", event.cycle)?,
            }
            sep = ",";
        }
        Ok(())
    }
}

/// One fault epoch: the state both engines switch to at cycle `at`.
#[derive(Debug)]
pub(crate) struct FaultEpoch {
    /// The cycle at whose top this epoch is applied.
    pub at: u64,
    /// Cumulative per-directed-channel dead mask.
    pub dead_channel: Vec<bool>,
    /// Routers that die at exactly this epoch (the cumulative dead-tile
    /// information lives in `component` as [`routing::NO_COMPONENT`]).
    pub newly_dead_routers: Vec<u32>,
    /// Routes over the surviving subgraph (original port numbering,
    /// same VC-class count as the base table).
    pub routes: Routes,
    /// Surviving-component id per tile
    /// ([`shg_topology::routing::NO_COMPONENT`] for dead routers);
    /// injection is gated on source and destination sharing one.
    pub component: Vec<u32>,
}

/// The compiled form of a [`FaultPlan`] for one topology: one epoch per
/// distinct fault cycle, in order.
#[derive(Debug)]
pub(crate) struct FaultSchedule {
    pub policy: InFlightPolicy,
    pub epochs: Vec<FaultEpoch>,
}

impl FaultSchedule {
    /// Compiles `plan` against `topology`, or `None` for the empty plan
    /// (the fault-free fast path). `num_vc_classes` is the base routing
    /// table's class count, which every degraded table inherits.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not [`FaultPlan::validate`] against this
    /// topology — CLI layers validate before building.
    pub(crate) fn build(plan: &FaultPlan, topology: &Topology, num_vc_classes: u8) -> Option<Self> {
        if plan.is_empty() {
            return None;
        }
        plan.validate(topology)
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        let n = topology.num_tiles();
        let mut dead_router = vec![false; n];
        let mut dead_channel = vec![false; topology.num_channels()];
        let mut epochs = Vec::new();
        let mut events = plan.events.iter().peekable();
        while let Some(first) = events.next() {
            let at = first.cycle;
            let mut group = vec![first];
            while let Some(&next) = events.peek() {
                if next.cycle != at {
                    break;
                }
                group.push(next);
                events.next();
            }
            let mut newly_dead_routers = Vec::new();
            let kill_channel = |c: usize, dead_channel: &mut Vec<bool>| {
                dead_channel[c] = true;
            };
            for event in group {
                match event.kill.canonical() {
                    FaultKind::Link(a, b) => {
                        let link = topology
                            .links()
                            .iter()
                            .position(|&l| l == Link::new(TileId::new(a), TileId::new(b)))
                            .expect("validated link exists");
                        kill_channel(link * 2, &mut dead_channel);
                        kill_channel(link * 2 + 1, &mut dead_channel);
                    }
                    FaultKind::Router(r) => {
                        let tile = TileId::new(r);
                        if !dead_router[r as usize] {
                            dead_router[r as usize] = true;
                            newly_dead_routers.push(r);
                        }
                        for &(_, link) in topology.neighbors(tile) {
                            kill_channel(link.index() * 2, &mut dead_channel);
                            kill_channel(link.index() * 2 + 1, &mut dead_channel);
                        }
                    }
                }
            }
            let alive_tile: Vec<bool> = dead_router.iter().map(|&d| !d).collect();
            let alive_channel: Vec<bool> = dead_channel.iter().map(|&d| !d).collect();
            let (routes, component) = routing::degraded_routes_with_components(
                topology,
                &alive_tile,
                &alive_channel,
                num_vc_classes,
            );
            epochs.push(FaultEpoch {
                at,
                dead_channel: dead_channel.clone(),
                newly_dead_routers,
                routes,
                component,
            });
        }
        Some(Self {
            policy: plan.policy,
            epochs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shg_topology::{generators, Grid};

    #[test]
    fn parse_round_trips_and_sorts() {
        let plan = FaultPlan::parse("300:router:5,100:link:7-2").expect("valid");
        assert_eq!(plan.policy, InFlightPolicy::Drop);
        assert_eq!(plan.events[0].cycle, 100);
        assert_eq!(plan.events[0].kill, FaultKind::Link(2, 7));
        assert_eq!(plan.to_string(), "100:link:2-7,300:router:5");
        assert_eq!(
            FaultPlan::parse(&plan.to_string()).expect("round trip"),
            plan
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "x:link:0-1",
            "100:link:0",
            "100:link:3-3",
            "100:bridge:0-1",
            "100:router:abc",
            "100",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        let plan = FaultPlan::parse("").expect("empty");
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::default());
        assert_eq!(plan.to_string(), "");
    }

    #[test]
    fn validate_checks_ranges_links_and_duplicates() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let ok = FaultPlan::parse("10:link:0-1,20:router:5").expect("valid");
        ok.validate(&mesh).expect("in range");
        let out_of_range = FaultPlan::parse("10:router:99").expect("parses");
        assert!(out_of_range
            .validate(&mesh)
            .unwrap_err()
            .contains("out of range"));
        let missing = FaultPlan::parse("10:link:0-5").expect("parses");
        assert!(missing.validate(&mesh).unwrap_err().contains("no link"));
        let duplicate = FaultPlan::parse("10:link:0-1,20:link:1-0").expect("parses");
        assert!(duplicate.validate(&mesh).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn schedule_accumulates_masks_per_epoch() {
        let mesh = generators::mesh(Grid::new(4, 4));
        let plan = FaultPlan::parse("100:link:0-1,100:link:0-4,200:router:5").expect("valid");
        let schedule = FaultSchedule::build(&plan, &mesh, 6).expect("non-empty");
        assert_eq!(schedule.epochs.len(), 2);
        let first = &schedule.epochs[0];
        assert_eq!(first.at, 100);
        assert_eq!(first.dead_channel.iter().filter(|&&d| d).count(), 4);
        assert!(first.newly_dead_routers.is_empty());
        // Tile 0 lost both its links: its own singleton component.
        assert_ne!(first.component[0], first.component[1]);
        let second = &schedule.epochs[1];
        assert_eq!(second.at, 200);
        assert_eq!(second.newly_dead_routers, vec![5]);
        assert!(second.dead_channel.iter().filter(|&&d| d).count() > 4);
        assert_eq!(second.routes.num_vc_classes(), 6);
        assert_eq!(second.component[5], shg_topology::routing::NO_COMPONENT);
    }

    #[test]
    fn empty_plan_compiles_to_no_schedule() {
        let mesh = generators::mesh(Grid::new(4, 4));
        assert!(FaultSchedule::build(&FaultPlan::default(), &mesh, 6).is_none());
    }
}
