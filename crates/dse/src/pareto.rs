//! Pareto frontiers over (latency, dynamic power) design points.
//!
//! The case study (§IV-C) trades off latency against dynamic power; both
//! objectives are minimized. Points are carried by index so callers can map
//! frontier members back to design configurations.

/// A design point in the latency/power plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Caller-side identifier (index into the design space).
    pub id: usize,
    /// Latency in cycles.
    pub latency: f64,
    /// Dynamic power in watts.
    pub power: f64,
}

/// `true` if `a` dominates `b` (no worse in both, strictly better in one).
pub fn dominates(a: &Point, b: &Point) -> bool {
    (a.latency <= b.latency && a.power <= b.power) && (a.latency < b.latency || a.power < b.power)
}

/// Returns the Pareto-optimal subset, sorted by latency ascending.
///
/// Duplicate coordinates keep a single representative (the lowest id). A
/// point with a NaN coordinate is comparable to nothing and never joins
/// the frontier; infinite coordinates order like any other value.
pub fn pareto_frontier(points: &[Point]) -> Vec<Point> {
    let mut sorted: Vec<Point> = points
        .iter()
        .filter(|p| !p.latency.is_nan() && !p.power.is_nan())
        .copied()
        .collect();
    sorted.sort_by(|a, b| {
        a.latency
            .total_cmp(&b.latency)
            .then(a.power.total_cmp(&b.power))
            .then(a.id.cmp(&b.id))
    });
    let mut frontier: Vec<Point> = Vec::new();
    let mut best_power = f64::INFINITY;
    for p in sorted {
        if p.power < best_power {
            // skip exact coordinate duplicates
            if let Some(last) = frontier.last() {
                if last.latency == p.latency && last.power == p.power {
                    continue;
                }
            }
            frontier.push(p);
            best_power = p.power;
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(id: usize, l: f64, p: f64) -> Point {
        Point {
            id,
            latency: l,
            power: p,
        }
    }

    #[test]
    fn dominance_rules() {
        assert!(dominates(&pt(0, 1.0, 1.0), &pt(1, 2.0, 2.0)));
        assert!(dominates(&pt(0, 1.0, 1.0), &pt(1, 1.0, 2.0)));
        assert!(!dominates(&pt(0, 1.0, 1.0), &pt(1, 1.0, 1.0)));
        assert!(!dominates(&pt(0, 1.0, 2.0), &pt(1, 2.0, 1.0)));
    }

    #[test]
    fn frontier_of_tradeoff_curve() {
        let pts = vec![
            pt(0, 10.0, 1.0),
            pt(1, 5.0, 2.0),
            pt(2, 1.0, 5.0),
            pt(3, 6.0, 3.0),  // dominated by 1
            pt(4, 12.0, 1.5), // dominated by 0
        ];
        let f = pareto_frontier(&pts);
        let ids: Vec<usize> = f.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![2, 1, 0]);
        // sorted by latency
        assert!(f.windows(2).all(|w| w[0].latency <= w[1].latency));
    }

    #[test]
    fn frontier_is_mutually_nondominating() {
        let pts: Vec<Point> = (0..50)
            .map(|i| {
                let x = (i * 7 % 13) as f64;
                let y = (i * 11 % 17) as f64;
                pt(i, x, y)
            })
            .collect();
        let f = pareto_frontier(&pts);
        for a in &f {
            for b in &f {
                if a.id != b.id {
                    assert!(!dominates(a, b), "{a:?} dominates {b:?}");
                }
            }
        }
        // every non-frontier point is dominated by some frontier point
        for p in &pts {
            if !f.iter().any(|q| q.id == p.id) {
                assert!(
                    f.iter()
                        .any(|q| dominates(q, p) || (q.latency == p.latency && q.power == p.power)),
                    "{p:?} not covered"
                );
            }
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(pareto_frontier(&[]).is_empty());
        let f = pareto_frontier(&[pt(3, 1.0, 1.0)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].id, 3);
    }

    #[test]
    fn duplicates_collapse() {
        let f = pareto_frontier(&[pt(0, 1.0, 1.0), pt(1, 1.0, 1.0)]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn nan_points_never_join_the_frontier() {
        let pts = vec![
            pt(0, 10.0, 1.0),
            pt(1, f64::NAN, 0.5),
            pt(2, 1.0, f64::NAN),
            pt(3, -f64::NAN, -f64::NAN),
            pt(4, 5.0, 2.0),
        ];
        let ids: Vec<usize> = pareto_frontier(&pts).iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![4, 0]);
        let all_nan = [pt(0, f64::NAN, f64::NAN)];
        assert!(pareto_frontier(&all_nan).is_empty());
    }

    #[test]
    fn infinite_coordinates_order_like_values() {
        let pts = vec![
            pt(0, 10.0, 1.0),
            pt(1, f64::INFINITY, 0.5),
            pt(2, f64::NEG_INFINITY, 3.0),
            pt(3, 5.0, f64::INFINITY),
        ];
        let ids: Vec<usize> = pareto_frontier(&pts).iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![2, 0, 1]);
        let floor = [pt(0, 1.0, f64::NEG_INFINITY), pt(1, 0.5, 2.0)];
        let ids: Vec<usize> = pareto_frontier(&floor).iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![1, 0]);
    }
}
