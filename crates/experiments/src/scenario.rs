//! Deterministic scenario generation: grids and Latin-hypercube samples
//! over the paper's attribute space.
//!
//! A [`Scenario`] is one fully specified rendezvous experiment: the four
//! hidden attributes of robot `R'` (speed `v`, clock `τ`, compass `φ`,
//! chirality `χ`), the initial placement (distance `d` at a bearing), the
//! visibility radius `r`, and which algorithm both robots run. Two
//! generators produce scenario batches:
//!
//! * [`ScenarioGrid`] — the Cartesian product of explicit value lists per
//!   axis, for exhaustive feasibility maps (Theorem 4 is a statement over
//!   exactly such a product);
//! * [`latin_hypercube`] — a space-filling sample of a continuous
//!   [`SampleSpace`], for coverage of the attribute space at a fixed
//!   budget, seeded and reproducible.
//!
//! Scenario ids are assigned densely from 0 in generation order, so a
//! batch is fully identified by `(generator spec, seed)` and results can
//! be merged back in order regardless of execution schedule.

use crate::canonical::{Canonical, OrbitKey, OutcomeTransform};
use crate::rng::SplitMix64;
use rvz_geometry::Vec2;
use rvz_model::{Chirality, InstanceError, RendezvousInstance, RobotAttributes};
use std::fmt;

/// Which common algorithm both robots execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// The universal Algorithm 7 (`WaitAndSearch`): wait/search phases,
    /// correct for every feasible attribute combination.
    #[default]
    WaitAndSearch,
    /// The Section 2 Algorithm 4 (`UniversalSearch`): pure expanding
    /// search, correct when clocks are symmetric (Theorem 2 regime).
    UniversalSearch,
}

impl Algorithm {
    /// All supported algorithms, in presentation order.
    pub const ALL: [Algorithm; 2] = [Algorithm::WaitAndSearch, Algorithm::UniversalSearch];

    /// Parses the CLI/wire spelling: `alg7`/`wait-and-search` or
    /// `alg4`/`search`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "alg7" | "algorithm7" | "wait-and-search" => Ok(Algorithm::WaitAndSearch),
            "alg4" | "algorithm4" | "search" => Ok(Algorithm::UniversalSearch),
            other => Err(format!(
                "unknown algorithm `{other}` (expected alg7|wait-and-search|alg4|search)"
            )),
        }
    }
}

/// Parses the shared CLI/wire spelling of a chirality: `+1`/`1` or `-1`.
///
/// # Errors
///
/// Returns a message naming the offending token otherwise.
pub fn parse_chirality(s: &str) -> Result<Chirality, String> {
    match s {
        "+1" | "1" => Ok(Chirality::Consistent),
        "-1" => Ok(Chirality::Mirrored),
        other => Err(format!("chirality expects +1 or -1, got `{other}`")),
    }
}

impl Algorithm {
    /// The fixed token naming the algorithm in artifacts and on the
    /// wire (`alg7`, `alg4`).
    pub fn token(self) -> &'static str {
        match self {
            Algorithm::WaitAndSearch => "alg7",
            Algorithm::UniversalSearch => "alg4",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One fully specified rendezvous experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Dense index within the generating batch.
    pub id: u64,
    /// The common algorithm both robots run.
    pub algorithm: Algorithm,
    /// Speed `v` of robot `R'`.
    pub speed: f64,
    /// Clock time-unit `τ` of robot `R'`.
    pub time_unit: f64,
    /// Compass orientation `φ` of robot `R'` (radians).
    pub orientation: f64,
    /// Chirality `χ` of robot `R'`.
    pub chirality: Chirality,
    /// Initial distance `d` between the robots.
    pub distance: f64,
    /// Bearing of `R'` from `R` (radians), i.e. `d⃗ = d·(cos β, sin β)`.
    pub bearing: f64,
    /// Visibility radius `r`.
    pub visibility: f64,
}

impl Scenario {
    /// The reference scenario: the one point of [`ScenarioGrid::new`]
    /// (Algorithm 7, a reference partner at distance 1 and bearing
    /// `π/3`, visibility `0.1`), and the value of every field a
    /// JSON-encoded scenario leaves out ([`crate::scenario_from_json`]).
    pub const REFERENCE: Scenario = Scenario {
        id: 0,
        algorithm: Algorithm::WaitAndSearch,
        speed: 1.0,
        time_unit: 1.0,
        orientation: 0.0,
        chirality: Chirality::Consistent,
        distance: 1.0,
        bearing: std::f64::consts::FRAC_PI_3,
        visibility: 0.1,
    };

    /// The attribute tuple of robot `R'`.
    pub fn attributes(&self) -> RobotAttributes {
        RobotAttributes::new(self.speed, self.time_unit, self.orientation, self.chirality)
    }

    /// The simulator instance this scenario denotes.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] when the parameters are degenerate
    /// (the generators never produce such scenarios, but hand-built ones
    /// can).
    pub fn instance(&self) -> Result<RendezvousInstance, InstanceError> {
        RendezvousInstance::new(
            Vec2::from_polar(self.distance, self.bearing),
            self.visibility,
            self.attributes(),
        )
    }

    /// The same physical instance described from `R'`'s frame (the exact
    /// role-swap symmetry), plus the transform mapping outcomes computed
    /// on the swapped description back into this scenario's frame.
    ///
    /// See [`crate::canonical::role_swap`].
    pub fn role_swap(&self) -> (Scenario, OutcomeTransform) {
        crate::canonical::role_swap(self)
    }

    /// Reduces the scenario to its attribute-symmetry orbit
    /// representative for result caching.
    ///
    /// See [`crate::canonical::canonicalize`]; `grid` is the cache
    /// quantization step ([`crate::canonical::DEFAULT_GRID`] by
    /// convention, `0.0` for bit-exact keys).
    pub fn canonicalize(&self, grid: f64) -> Canonical {
        crate::canonical::canonicalize(self, grid)
    }

    /// The verdict-level orbit key (full quotient by the paper's
    /// attribute symmetries; placement-free).
    ///
    /// See [`crate::canonical::orbit_key`].
    pub fn orbit_key(&self, grid: f64) -> OrbitKey {
        crate::canonical::orbit_key(self, grid)
    }
}

fn check_axis(name: &str, values: &[f64], positive: bool) {
    assert!(
        !values.is_empty(),
        "axis `{name}` must keep at least one value"
    );
    for &v in values {
        assert!(v.is_finite(), "axis `{name}` holds a non-finite value {v}");
        if positive {
            assert!(v > 0.0, "axis `{name}` requires positive values, got {v}");
        }
    }
}

/// The Cartesian-product scenario generator.
///
/// Every axis defaults to a single reference value, so an empty builder
/// yields exactly one scenario (the identical-twins instance at distance
/// 1 with `r = 0.1`). Setting an axis replaces its values.
///
/// # Example
///
/// ```
/// use rvz_experiments::ScenarioGrid;
///
/// let grid = ScenarioGrid::new()
///     .speeds(&[0.5, 1.0])
///     .clocks(&[0.6, 1.0])
///     .orientations(&[0.0, 1.3]);
/// assert_eq!(grid.len(), 8);
/// let scenarios = grid.build();
/// assert_eq!(scenarios.len(), 8);
/// assert_eq!(scenarios[3].id, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    algorithms: Vec<Algorithm>,
    speeds: Vec<f64>,
    clocks: Vec<f64>,
    orientations: Vec<f64>,
    chiralities: Vec<Chirality>,
    distances: Vec<f64>,
    bearings: Vec<f64>,
    visibilities: Vec<f64>,
}

impl Default for ScenarioGrid {
    fn default() -> Self {
        ScenarioGrid::new()
    }
}

impl ScenarioGrid {
    /// A grid with one reference value per axis: Algorithm 7, a
    /// reference partner at distance 1 and bearing `π/3`, visibility
    /// `0.1` — also the value of every field a JSON-encoded scenario
    /// leaves out.
    pub fn new() -> Self {
        let s = Scenario::REFERENCE;
        ScenarioGrid {
            algorithms: vec![s.algorithm],
            speeds: vec![s.speed],
            clocks: vec![s.time_unit],
            orientations: vec![s.orientation],
            chiralities: vec![s.chirality],
            distances: vec![s.distance],
            bearings: vec![s.bearing],
            visibilities: vec![s.visibility],
        }
    }

    /// Sets the algorithm axis.
    ///
    /// # Panics
    ///
    /// Panics when `values` is empty (every axis must keep at least one
    /// value; the same applies to all other setters).
    pub fn algorithms(mut self, values: &[Algorithm]) -> Self {
        assert!(
            !values.is_empty(),
            "axis `algorithms` must keep at least one value"
        );
        self.algorithms = values.to_vec();
        self
    }

    /// Sets the speed (`v`) axis; values must be positive and finite.
    pub fn speeds(mut self, values: &[f64]) -> Self {
        check_axis("speeds", values, true);
        self.speeds = values.to_vec();
        self
    }

    /// Sets the clock (`τ`) axis; values must be positive and finite.
    pub fn clocks(mut self, values: &[f64]) -> Self {
        check_axis("clocks", values, true);
        self.clocks = values.to_vec();
        self
    }

    /// Sets the compass (`φ`) axis, in radians.
    pub fn orientations(mut self, values: &[f64]) -> Self {
        check_axis("orientations", values, false);
        self.orientations = values.to_vec();
        self
    }

    /// Sets the chirality (`χ`) axis.
    pub fn chiralities(mut self, values: &[Chirality]) -> Self {
        assert!(
            !values.is_empty(),
            "axis `chiralities` must keep at least one value"
        );
        self.chiralities = values.to_vec();
        self
    }

    /// Sets the initial-distance axis; values must be positive and finite.
    pub fn distances(mut self, values: &[f64]) -> Self {
        check_axis("distances", values, true);
        self.distances = values.to_vec();
        self
    }

    /// Sets the placement-bearing axis, in radians.
    pub fn bearings(mut self, values: &[f64]) -> Self {
        check_axis("bearings", values, false);
        self.bearings = values.to_vec();
        self
    }

    /// Sets the visibility-radius axis; values must be positive and finite.
    pub fn visibilities(mut self, values: &[f64]) -> Self {
        check_axis("visibilities", values, true);
        self.visibilities = values.to_vec();
        self
    }

    /// The number of scenarios the grid denotes (the product of all axis
    /// cardinalities).
    pub fn len(&self) -> usize {
        self.shape().iter().product()
    }

    /// `true` when the grid is empty (never: every axis keeps ≥ 1 value).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-axis cardinalities, in iteration order: algorithm, speed,
    /// clock, orientation, chirality, distance, bearing, visibility.
    pub fn shape(&self) -> [usize; 8] {
        [
            self.algorithms.len(),
            self.speeds.len(),
            self.clocks.len(),
            self.orientations.len(),
            self.chiralities.len(),
            self.distances.len(),
            self.bearings.len(),
            self.visibilities.len(),
        ]
    }

    /// Materializes the grid in row-major axis order (the last axis,
    /// visibility, varies fastest), assigning dense ids from 0.
    pub fn build(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for &algorithm in &self.algorithms {
            for &speed in &self.speeds {
                for &time_unit in &self.clocks {
                    for &orientation in &self.orientations {
                        for &chirality in &self.chiralities {
                            for &distance in &self.distances {
                                for &bearing in &self.bearings {
                                    for &visibility in &self.visibilities {
                                        out.push(Scenario {
                                            id: out.len() as u64,
                                            algorithm,
                                            speed,
                                            time_unit,
                                            orientation,
                                            chirality,
                                            distance,
                                            bearing,
                                            visibility,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Continuous ranges for [`latin_hypercube`] sampling.
///
/// Each field is a closed-open interval `[lo, hi)`; a degenerate range
/// (`lo == hi`) pins the axis to a constant. Chirality and algorithm are
/// discrete and sampled uniformly from the listed choices.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSpace {
    /// Speed range for `v`.
    pub speed: (f64, f64),
    /// Clock range for `τ`.
    pub time_unit: (f64, f64),
    /// Compass range for `φ` (radians).
    pub orientation: (f64, f64),
    /// Initial-distance range for `d`.
    pub distance: (f64, f64),
    /// Placement-bearing range (radians).
    pub bearing: (f64, f64),
    /// Visibility radius `r` (constant across the sample).
    pub visibility: f64,
    /// Discrete chirality choices.
    pub chiralities: Vec<Chirality>,
    /// Discrete algorithm choices.
    pub algorithms: Vec<Algorithm>,
}

impl Default for SampleSpace {
    fn default() -> Self {
        SampleSpace {
            speed: (0.25, 2.0),
            time_unit: (0.25, 2.0),
            orientation: (0.0, std::f64::consts::TAU),
            distance: (0.5, 2.0),
            bearing: (0.0, std::f64::consts::TAU),
            visibility: 0.1,
            chiralities: vec![Chirality::Consistent, Chirality::Mirrored],
            algorithms: vec![Algorithm::WaitAndSearch],
        }
    }
}

impl SampleSpace {
    fn validate(&self) {
        for (name, (lo, hi), positive) in [
            ("speed", self.speed, true),
            ("time_unit", self.time_unit, true),
            ("orientation", self.orientation, false),
            ("distance", self.distance, true),
            ("bearing", self.bearing, false),
        ] {
            assert!(
                lo.is_finite() && hi.is_finite() && lo <= hi,
                "range `{name}` = [{lo}, {hi}) is invalid"
            );
            if positive {
                assert!(lo > 0.0, "range `{name}` must be positive, got lo = {lo}");
            }
        }
        assert!(
            self.visibility > 0.0 && self.visibility.is_finite(),
            "visibility must be positive and finite"
        );
        assert!(
            !self.chiralities.is_empty(),
            "need at least one chirality choice"
        );
        assert!(
            !self.algorithms.is_empty(),
            "need at least one algorithm choice"
        );
    }
}

/// Draws `n` scenarios by Latin-hypercube sampling of `space`, seeded.
///
/// Each continuous axis is cut into `n` equal strata; a seeded
/// permutation assigns exactly one stratum per scenario per axis, and the
/// position within the stratum is a further uniform draw. This guarantees
/// marginal coverage of every axis at any budget — a plain uniform sample
/// of size 64 can easily leave half the speed range unexplored; an LHS
/// sample cannot.
///
/// The draw depends only on `(space, n, seed)`: per-axis generators are
/// derived with [`SplitMix64::split`], so results are reproducible and
/// stable across platforms.
///
/// # Panics
///
/// Panics when `n == 0` or `space` is invalid.
pub fn latin_hypercube(space: &SampleSpace, n: usize, seed: u64) -> Vec<Scenario> {
    space.validate();
    assert!(n > 0, "sample size must be positive");
    let root = SplitMix64::new(seed);

    // One independent stream per axis: stratum permutation + jitter.
    let axis = |stream: u64, (lo, hi): (f64, f64)| -> Vec<f64> {
        let mut rng = root.split(stream);
        let mut strata: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut strata);
        let width = (hi - lo) / n as f64;
        strata
            .into_iter()
            .map(|s| lo + width * (s as f64 + rng.next_f64()))
            .collect()
    };

    let speeds = axis(1, space.speed);
    let clocks = axis(2, space.time_unit);
    let orientations = axis(3, space.orientation);
    let distances = axis(4, space.distance);
    let bearings = axis(5, space.bearing);
    let mut discrete = root.split(6);

    (0..n)
        .map(|i| Scenario {
            id: i as u64,
            algorithm: space.algorithms[discrete.next_below(space.algorithms.len())],
            speed: speeds[i],
            time_unit: clocks[i],
            orientation: orientations[i],
            chirality: space.chiralities[discrete.next_below(space.chiralities.len())],
            distance: distances[i],
            bearing: bearings[i],
            visibility: space.visibility,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_is_a_single_reference_scenario() {
        let grid = ScenarioGrid::new();
        assert_eq!(grid.len(), 1);
        let s = grid.build()[0];
        assert!(s.attributes().is_reference());
        assert_eq!(s.id, 0);
        assert!(s.instance().is_ok());
        assert_eq!(s, Scenario::REFERENCE);
    }

    #[test]
    fn grid_len_matches_shape_product() {
        let grid = ScenarioGrid::new()
            .speeds(&[0.5, 0.75, 1.0])
            .clocks(&[0.6, 1.0])
            .chiralities(&[Chirality::Consistent, Chirality::Mirrored])
            .distances(&[0.5, 1.0]);
        assert_eq!(grid.shape(), [1, 3, 2, 1, 2, 2, 1, 1]);
        assert_eq!(grid.len(), 24);
        assert_eq!(grid.build().len(), 24);
    }

    #[test]
    fn grid_ids_are_dense_and_ordered() {
        let scenarios = ScenarioGrid::new()
            .speeds(&[0.5, 1.0])
            .clocks(&[0.6, 1.0])
            .build();
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.id, i as u64);
        }
        // Last axis varies fastest: first two scenarios differ in clock.
        assert_eq!(scenarios[0].speed, scenarios[1].speed);
        assert_ne!(scenarios[0].time_unit, scenarios[1].time_unit);
    }

    #[test]
    #[should_panic(expected = "axis `speeds` requires positive values")]
    fn grid_rejects_non_positive_speed() {
        let _ = ScenarioGrid::new().speeds(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn grid_rejects_empty_axis() {
        let _ = ScenarioGrid::new().distances(&[]);
    }

    #[test]
    fn lhs_is_deterministic_under_seed() {
        let space = SampleSpace::default();
        let a = latin_hypercube(&space, 64, 99);
        let b = latin_hypercube(&space, 64, 99);
        assert_eq!(a, b);
        let c = latin_hypercube(&space, 64, 100);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn lhs_covers_every_stratum_of_every_axis() {
        let space = SampleSpace::default();
        let n = 32;
        let sample = latin_hypercube(&space, n, 5);
        for (lo, hi, pick) in [
            (
                space.speed.0,
                space.speed.1,
                &(|s: &Scenario| s.speed) as &dyn Fn(&Scenario) -> f64,
            ),
            (space.time_unit.0, space.time_unit.1, &|s: &Scenario| {
                s.time_unit
            }),
            (space.distance.0, space.distance.1, &|s: &Scenario| {
                s.distance
            }),
        ] {
            let width = (hi - lo) / n as f64;
            let mut seen = vec![false; n];
            for s in &sample {
                let stratum = (((pick(s) - lo) / width) as usize).min(n - 1);
                seen[stratum] = true;
            }
            assert!(seen.iter().all(|&x| x), "a stratum was left empty");
        }
    }

    #[test]
    fn lhs_scenarios_are_valid_instances() {
        for s in latin_hypercube(&SampleSpace::default(), 100, 3) {
            assert!(s.instance().is_ok(), "invalid scenario {s:?}");
        }
    }

    #[test]
    fn algorithm_parse_round_trips() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::parse(&alg.to_string()), Ok(alg));
        }
        assert!(Algorithm::parse("dance").is_err());
    }
}
