//! fig6's headline line must agree with the table printed above it.
//!
//! Each committed fig6 golden ends its evaluation table with
//! `Within the B% area budget: highest throughput = NAME (X%), latency
//! rank r of n`. Parsed back from the goldens: NAME is a row within the
//! budget, X is the largest `SatThr` among those rows, and r and n
//! follow from the `ZLL` column. The fast goldens' highest throughput is
//! a tie between two rows; the line names the one listed last.

/// One row of the evaluation table, as printed.
struct Row {
    name: String,
    area_overhead: f64,
    zero_load_latency: f64,
    saturation_throughput: f64,
}

/// The evaluation rows and the headline line of a fig6 report.
fn parse(report: &str) -> (Vec<Row>, &str) {
    let mut lines = report.lines();
    lines
        .find(|line| line.starts_with("Topology "))
        .expect("table header");
    lines.next().expect("header rule");
    let rows = lines
        .by_ref()
        .take_while(|line| !line.trim().is_empty())
        .map(|line| {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let (name, numbers) = tokens.split_at(tokens.len() - 5);
            let number = |i: usize| numbers[i].parse::<f64>().expect("numeric column");
            Row {
                name: name.join(" "),
                area_overhead: number(1),
                zero_load_latency: number(3),
                saturation_throughput: number(4),
            }
        })
        .collect();
    let summary = lines
        .find(|line| line.starts_with("Within the "))
        .expect("headline line");
    (rows, summary)
}

/// The text of `line` between `start` and the next `end`.
fn between<'a>(line: &'a str, start: &str, end: &str) -> &'a str {
    let from = line.find(start).expect("start marker") + start.len();
    let len = line[from..].find(end).expect("end marker");
    &line[from..from + len]
}

/// Checks one golden and returns how many within-budget rows share the
/// highest throughput.
fn check(golden: &str) -> usize {
    let (rows, summary) = parse(golden);
    let budget: f64 = between(summary, "Within the ", "% area budget")
        .parse()
        .expect("budget");
    let name = between(summary, "highest throughput = ", " (");
    let throughput: f64 = between(summary, " (", "%)").parse().expect("throughput");
    let rank = between(summary, "latency rank ", " of ");
    let (rank, count): (usize, usize) = (
        rank.parse().expect("rank"),
        summary
            .rsplit(" of ")
            .next()
            .expect("count")
            .parse()
            .expect("count"),
    );
    let within: Vec<&Row> = rows.iter().filter(|r| r.area_overhead <= budget).collect();
    let best = within
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("'{name}' is not a within-budget row: {summary}"));
    let top = within
        .iter()
        .map(|r| r.saturation_throughput)
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(best.saturation_throughput, throughput, "{summary}");
    assert_eq!(throughput, top, "not the highest within budget: {summary}");
    assert_eq!(count, within.len(), "{summary}");
    let faster = within
        .iter()
        .filter(|r| r.zero_load_latency < best.zero_load_latency)
        .count();
    assert_eq!(rank, faster + 1, "{summary}");
    let tied: Vec<&&Row> = within
        .iter()
        .filter(|r| r.saturation_throughput == top)
        .collect();
    assert_eq!(
        tied.last().map(|r| r.name.as_str()),
        Some(name),
        "{summary}"
    );
    tied.len()
}

#[test]
fn fast_summary_agrees_with_its_table_and_is_a_tie() {
    assert_eq!(check(include_str!("golden/fig6_scenario_a_fast.txt")), 2);
}

#[test]
fn fast_customize_summary_agrees_with_its_table_and_is_a_tie() {
    assert_eq!(
        check(include_str!("golden/fig6_scenario_a_fast_customize.txt")),
        2
    );
}

#[test]
fn full_fidelity_summary_agrees_with_its_table() {
    assert_eq!(check(include_str!("golden/fig6_scenario_a.txt")), 1);
}
