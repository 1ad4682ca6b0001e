//! Structured sweep output: JSON-lines, CSV, and aggregate summaries.
//!
//! Sweep artifacts are meant to be diffed, archived and post-processed,
//! so the writers here are fully deterministic: field order is fixed,
//! floats are rendered with Rust's shortest-round-trip formatting (the
//! same bits always produce the same text), and no timestamps or
//! wall-clock measurements appear in the records. Two byte-identical
//! sweep files therefore certify two identical result sets — the
//! 1-thread-vs-N-thread determinism test relies on exactly this.

use crate::executor::SweepRecord;
use crate::json::Json;
use crate::scenario::{parse_chirality, Algorithm, Scenario};
use rvz_model::{feasibility, Feasibility};
use rvz_sim::SimOutcome;
use std::io::{self, Write};

/// The fixed token naming the exploited symmetry breaker (or `none`).
pub fn breaker_token(feasibility: &Feasibility) -> &'static str {
    match feasibility {
        Feasibility::Feasible(b) => match b {
            rvz_model::SymmetryBreaker::AsymmetricClocks => "clocks",
            rvz_model::SymmetryBreaker::DifferentSpeeds => "speeds",
            rvz_model::SymmetryBreaker::OrientationOffset => "orientation",
        },
        Feasibility::Infeasible(_) => "none",
    }
}

/// The fixed token naming the outcome variant.
pub fn outcome_token(outcome: &SimOutcome) -> &'static str {
    match outcome {
        SimOutcome::Contact { .. } => "contact",
        SimOutcome::Horizon { .. } => "horizon",
        SimOutcome::StepBudget { .. } => "step_budget",
        SimOutcome::Deadline { .. } => "deadline",
    }
}

/// The flat field view of a record shared by both writers.
struct Row<'a> {
    record: &'a SweepRecord,
}

impl Row<'_> {
    fn outcome_kind(&self) -> &'static str {
        outcome_token(&self.record.outcome)
    }

    /// `(time, distance, steps)` normalized across outcome variants:
    /// contact time / contact distance / steps for a contact, the
    /// min-distance observation otherwise.
    fn observables(&self) -> (f64, f64, u64) {
        match self.record.outcome {
            SimOutcome::Contact {
                time,
                distance,
                steps,
            } => (time, distance, steps),
            SimOutcome::Horizon {
                min_distance,
                min_distance_time,
                steps,
            } => (min_distance_time, min_distance, steps),
            SimOutcome::StepBudget {
                time,
                min_distance,
                steps,
            }
            | SimOutcome::Deadline {
                time,
                min_distance,
                steps,
            } => (time, min_distance, steps),
        }
    }

    fn breaker(&self) -> &'static str {
        breaker_token(&self.record.feasibility)
    }
}

/// The CSV header row matching [`write_csv`].
pub const CSV_HEADER: &str = "id,algorithm,speed,time_unit,orientation,chirality,distance,bearing,visibility,feasible,breaker,outcome,time,observed_distance,steps";

/// Writes one record per line as CSV (no quoting needed: every field is
/// numeric or a fixed token).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_csv<W: Write>(w: &mut W, records: &[SweepRecord]) -> io::Result<()> {
    writeln!(w, "{CSV_HEADER}")?;
    for record in records {
        let row = Row { record };
        let s = &record.scenario;
        let (time, distance, steps) = row.observables();
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            s.id,
            s.algorithm,
            s.speed,
            s.time_unit,
            s.orientation,
            s.chirality,
            s.distance,
            s.bearing,
            s.visibility,
            record.feasibility.is_feasible(),
            row.breaker(),
            row.outcome_kind(),
            time,
            distance,
            steps,
        )?;
    }
    Ok(())
}

/// Writes one record per line as a JSON object (JSON-lines).
///
/// Each line is the rendering of [`record_to_json`], so the sink and the
/// serving layer's decoder share one schema by construction: anything
/// this writer emits is accepted verbatim by [`record_from_json`].
/// Every value is a number, boolean or fixed token; floats use
/// shortest-round-trip formatting, so integral values render without a
/// decimal point (`1` rather than `1.0`), which is still a valid JSON
/// number.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_jsonl<W: Write>(w: &mut W, records: &[SweepRecord]) -> io::Result<()> {
    for record in records {
        writeln!(w, "{}", record_to_json(record).render())?;
    }
    Ok(())
}

/// The JSON-object form of one sweep record (the JSONL row and the
/// `rvz serve` response-record schema).
///
/// Field order is fixed; see [`write_jsonl`] for the formatting
/// guarantees.
pub fn record_to_json(record: &SweepRecord) -> Json {
    let row = Row { record };
    let s = &record.scenario;
    let (time, distance, steps) = row.observables();
    Json::obj(vec![
        ("id", Json::Num(s.id as f64)),
        ("algorithm", Json::Str(s.algorithm.to_string())),
        ("speed", Json::Num(s.speed)),
        ("time_unit", Json::Num(s.time_unit)),
        ("orientation", Json::Num(s.orientation)),
        ("chirality", Json::Str(s.chirality.to_string())),
        ("distance", Json::Num(s.distance)),
        ("bearing", Json::Num(s.bearing)),
        ("visibility", Json::Num(s.visibility)),
        ("feasible", Json::Bool(record.feasibility.is_feasible())),
        ("breaker", Json::Str(row.breaker().to_string())),
        ("outcome", Json::Str(row.outcome_kind().to_string())),
        ("time", Json::Num(time)),
        ("observed_distance", Json::Num(distance)),
        ("steps", Json::Num(steps as f64)),
    ])
}

fn field_f64(value: &Json, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
}

/// Parses the scenario fields of a [`record_to_json`]-shaped object.
///
/// Unlike [`Scenario::attributes`]'s panicking constructors, every field
/// is *validated* here — remote or file input cannot crash the caller.
/// Missing fields fall back to the reference scenario (the
/// [`crate::ScenarioGrid::new`] singleton), so a minimal query like
/// `{"speed":0.5}` denotes a full scenario.
///
/// # Errors
///
/// Returns a description of the first mistyped or out-of-domain field.
pub fn scenario_from_json(value: &Json) -> Result<Scenario, String> {
    if value.as_object().is_none() {
        return Err("scenario must be a JSON object".into());
    }
    let defaults = crate::ScenarioGrid::new().build()[0];
    let opt_f64 = |key: &str, default: f64| -> Result<f64, String> {
        match value.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_f64()
                .ok_or_else(|| format!("field `{key}` expects a number")),
        }
    };
    let positive = |key: &str, x: f64| -> Result<f64, String> {
        if x > 0.0 && x.is_finite() {
            Ok(x)
        } else {
            Err(format!("field `{key}` must be positive and finite"))
        }
    };
    let finite = |key: &str, x: f64| -> Result<f64, String> {
        if x.is_finite() {
            Ok(x)
        } else {
            Err(format!("field `{key}` must be finite"))
        }
    };
    let scenario = Scenario {
        id: match value.get("id") {
            None => defaults.id,
            Some(v) => v
                .as_u64()
                .ok_or("field `id` expects a non-negative integer")?,
        },
        algorithm: match value.get("algorithm") {
            None => defaults.algorithm,
            Some(v) => Algorithm::parse(v.as_str().ok_or("field `algorithm` expects a string")?)?,
        },
        speed: positive("speed", opt_f64("speed", defaults.speed)?)?,
        time_unit: positive("time_unit", opt_f64("time_unit", defaults.time_unit)?)?,
        orientation: finite("orientation", opt_f64("orientation", defaults.orientation)?)?,
        chirality: match value.get("chirality") {
            None => defaults.chirality,
            Some(v) => parse_chirality(v.as_str().ok_or("field `chirality` expects a string")?)?,
        },
        distance: positive("distance", opt_f64("distance", defaults.distance)?)?,
        bearing: finite("bearing", opt_f64("bearing", defaults.bearing)?)?,
        visibility: positive("visibility", opt_f64("visibility", defaults.visibility)?)?,
    };
    // Belt and suspenders: the per-field checks above already imply a
    // valid instance, but future instance-level constraints should
    // surface as parse errors rather than worker panics.
    if let Err(e) = scenario.instance() {
        return Err(format!("scenario is degenerate: {e}"));
    }
    Ok(scenario)
}

fn field_str<'a>(value: &'a Json, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

/// Parses one record from its [`record_to_json`] / [`write_jsonl`] form.
///
/// The flat row carries the scenario, the observables and the verdict
/// tokens; the structured [`Feasibility`] payload is reconstructed by
/// re-deciding Theorem 4 on the parsed attributes and cross-checked
/// against the row's `feasible`/`breaker` fields, so a tampered or
/// mismatched row is rejected rather than silently re-labelled.
///
/// # Errors
///
/// Returns a description of the first missing, mistyped or inconsistent
/// field.
pub fn record_from_json(value: &Json) -> Result<SweepRecord, String> {
    let scenario = scenario_from_json(value)?;
    let verdict = feasibility(&scenario.attributes());
    let feasible = value
        .get("feasible")
        .and_then(Json::as_bool)
        .ok_or("missing or non-boolean field `feasible`")?;
    if feasible != verdict.is_feasible() || field_str(value, "breaker")? != breaker_token(&verdict)
    {
        return Err(format!(
            "feasible/breaker fields disagree with the Theorem 4 verdict {verdict}"
        ));
    }
    let time = field_f64(value, "time")?;
    let observed = field_f64(value, "observed_distance")?;
    let steps = value
        .get("steps")
        .and_then(Json::as_u64)
        .ok_or("missing or non-integer field `steps`")?;
    let outcome = match field_str(value, "outcome")? {
        "contact" => SimOutcome::Contact {
            time,
            distance: observed,
            steps,
        },
        "horizon" => SimOutcome::Horizon {
            min_distance: observed,
            min_distance_time: time,
            steps,
        },
        "step_budget" => SimOutcome::StepBudget {
            time,
            min_distance: observed,
            steps,
        },
        "deadline" => SimOutcome::Deadline {
            time,
            min_distance: observed,
            steps,
        },
        other => return Err(format!("unknown outcome kind `{other}`")),
    };
    Ok(SweepRecord {
        scenario,
        feasibility: verdict,
        outcome,
    })
}

/// Aggregate statistics over a sweep, comparable across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Total records.
    pub total: usize,
    /// Records whose simulation made contact.
    pub contacts: usize,
    /// Records that reached the horizon without contact.
    pub horizons: usize,
    /// Records that exhausted the step budget.
    pub step_budgets: usize,
    /// Records whose wall-clock deadline expired mid-query.
    pub deadlines: usize,
    /// Records where the Theorem 4 verdict and the simulation agree.
    pub consistent: usize,
    /// Contact-time percentiles `[p50, p90, p99, max]`, when any contact
    /// occurred.
    pub contact_time_percentiles: Option<[f64; 4]>,
}

/// The nearest-rank percentile of an ascending-sorted sample.
///
/// Returns `None` for an empty sample or a NaN `p` (an empty slice used
/// to panic here through `clamp` with `min > max`); `p` is clamped into
/// `[0, 100]` otherwise. Used by the sweep [`Summary`].
///
/// # Example
///
/// ```
/// use rvz_experiments::percentile;
///
/// assert_eq!(percentile(&[], 50.0), None);
/// assert_eq!(percentile(&[3.0], 99.0), Some(3.0));
/// assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
/// ```
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || p.is_nan() {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

impl Summary {
    /// Aggregates a record batch.
    pub fn from_records(records: &[SweepRecord]) -> Self {
        let mut contacts = 0;
        let mut horizons = 0;
        let mut step_budgets = 0;
        let mut deadlines = 0;
        let mut consistent = 0;
        let mut times = Vec::new();
        for r in records {
            match r.outcome {
                SimOutcome::Contact { time, .. } => {
                    contacts += 1;
                    times.push(time);
                }
                SimOutcome::Horizon { .. } => horizons += 1,
                SimOutcome::StepBudget { .. } => step_budgets += 1,
                SimOutcome::Deadline { .. } => deadlines += 1,
            }
            if r.consistent() {
                consistent += 1;
            }
        }
        times.sort_by(|a, b| a.partial_cmp(b).expect("contact times are finite"));
        let contact_time_percentiles = match (
            percentile(&times, 50.0),
            percentile(&times, 90.0),
            percentile(&times, 99.0),
            times.last(),
        ) {
            (Some(p50), Some(p90), Some(p99), Some(&max)) => Some([p50, p90, p99, max]),
            _ => None,
        };
        Summary {
            total: records.len(),
            contacts,
            horizons,
            step_budgets,
            deadlines,
            consistent,
            contact_time_percentiles,
        }
    }

    /// A human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scenarios: {}  contact: {}  horizon: {}  step-budget: {}  deadline: {}\n",
            self.total, self.contacts, self.horizons, self.step_budgets, self.deadlines
        ));
        out.push_str(&format!(
            "theorem-4 consistency: {}/{}\n",
            self.consistent, self.total
        ));
        if let Some([p50, p90, p99, max]) = self.contact_time_percentiles {
            out.push_str(&format!(
                "contact time: p50={p50:.4}  p90={p90:.4}  p99={p99:.4}  max={max:.4}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_sweep, SweepOptions};
    use crate::scenario::ScenarioGrid;

    fn records() -> Vec<SweepRecord> {
        let scenarios = ScenarioGrid::new()
            .speeds(&[0.5, 1.0])
            .clocks(&[0.6, 1.0])
            .distances(&[0.9])
            .visibilities(&[0.25])
            .build();
        run_sweep(&scenarios, &SweepOptions::default())
    }

    #[test]
    fn csv_has_header_plus_one_line_per_record() {
        let records = records();
        let mut buf = Vec::new();
        write_csv(&mut buf, &records).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), records.len() + 1);
        assert_eq!(lines[0], CSV_HEADER);
        let columns = CSV_HEADER.split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), columns, "bad row: {line}");
        }
    }

    #[test]
    fn jsonl_lines_are_minimally_wellformed() {
        let records = records();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &records).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), records.len());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"outcome\":\""));
            // No illegal JSON tokens can appear: the engine only reports
            // finite observables.
            assert!(!line.contains("NaN") && !line.contains("inf"));
        }
    }

    #[test]
    fn summary_counts_add_up() {
        let records = records();
        let summary = Summary::from_records(&records);
        assert_eq!(summary.total, records.len());
        assert_eq!(
            summary.contacts + summary.horizons + summary.step_budgets,
            summary.total
        );
        assert_eq!(summary.consistent, summary.total);
        let [p50, p90, p99, max] = summary.contact_time_percentiles.unwrap();
        assert!(p50 <= p90 && p90 <= p99 && p99 <= max);
        assert!(summary.render().contains("theorem-4 consistency"));
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), Some(2.0));
        assert_eq!(percentile(&xs, 90.0), Some(4.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
    }

    #[test]
    fn percentile_survives_degenerate_inputs() {
        // Empty: used to panic via `rank.clamp(1, 0)`.
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[], 0.0), None);
        // Singleton: every percentile is the one sample.
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5));
        }
        // Two elements: nearest-rank splits at the median.
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 50.0), Some(1.0));
        assert_eq!(percentile(&xs, 50.1), Some(2.0));
        assert_eq!(percentile(&xs, 100.0), Some(2.0));
        // Out-of-range and NaN percentiles are clamped / rejected.
        assert_eq!(percentile(&xs, -10.0), Some(1.0));
        assert_eq!(percentile(&xs, 250.0), Some(2.0));
        assert_eq!(percentile(&xs, f64::NAN), None);
    }

    #[test]
    fn records_round_trip_through_json() {
        for record in records() {
            let json = record_to_json(&record);
            let line = json.render();
            let parsed = crate::json::parse(&line).unwrap();
            let back = record_from_json(&parsed).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn record_from_json_rejects_inconsistent_rows() {
        let record = records().remove(0);
        let line = record_to_json(&record).render();
        // Flip the feasible flag: the row no longer matches Theorem 4.
        let tampered = if line.contains("\"feasible\":true") {
            line.replace("\"feasible\":true", "\"feasible\":false")
        } else {
            line.replace("\"feasible\":false", "\"feasible\":true")
        };
        let parsed = crate::json::parse(&tampered).unwrap();
        assert!(record_from_json(&parsed).unwrap_err().contains("Theorem 4"));
    }

    #[test]
    fn scenario_from_json_validates_domains() {
        use crate::json::parse;
        let minimal = parse(r#"{"speed":0.5}"#).unwrap();
        let s = scenario_from_json(&minimal).unwrap();
        assert_eq!(s.speed, 0.5);
        assert_eq!(s.time_unit, 1.0, "missing fields take reference values");

        for (bad, needle) in [
            (r#"{"speed":-1}"#, "positive"),
            (r#"{"speed":0}"#, "positive"),
            (r#"{"time_unit":1e999}"#, "positive and finite"),
            (r#"{"orientation":"north"}"#, "expects a number"),
            (r#"{"chirality":"left"}"#, "+1 or -1"),
            (r#"{"algorithm":"dance"}"#, "unknown algorithm"),
            (r#"{"visibility":0}"#, "positive"),
            (r#"[1,2]"#, "must be a JSON object"),
        ] {
            let value = parse(bad).unwrap();
            let err = scenario_from_json(&value).unwrap_err();
            assert!(err.contains(needle), "`{bad}` gave `{err}`");
        }
    }
}
