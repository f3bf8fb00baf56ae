//! EXPERIMENTS.md and README.md quote the golden report
//! (`bench_output_repro.txt`, the suite's stdout that CI byte-compares).
//! These tests hold four EXPERIMENTS.md sections to that report (Table 2,
//! Table 3, Fig. 1 and Fig. 5) and every row of README's highlights table.
//! Each measured number must equal the report's value rounded to the
//! number of decimals the doc prints. Every mismatch is listed, not only
//! the first.

/// A file at the repository root.
fn read(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The text after `heading` up to the next `next`.
fn section<'a>(text: &'a str, heading: &str, next: &str) -> &'a str {
    let start = text
        .find(heading)
        .unwrap_or_else(|| panic!("no section {heading:?}"))
        + heading.len();
    let rest = &text[start..];
    &rest[..rest.find(next).unwrap_or(rest.len())]
}

/// The report section of experiment `name`, after its `####` banner.
fn report_section<'a>(report: &'a str, name: &str) -> &'a str {
    section(report, &format!("\n# {name}\n#"), "\n####")
}

/// The doc section whose heading starts with `heading`.
fn doc_section<'a>(doc: &'a str, heading: &str) -> &'a str {
    section(doc, &format!("\n{heading}"), "\n## ")
}

fn num(s: &str) -> f64 {
    s.trim()
        .trim_end_matches('%')
        .parse()
        .unwrap_or_else(|e| panic!("{s:?}: {e}"))
}

/// The text between `before` and the next `after` in `s`.
fn between<'a>(s: &'a str, before: &str, after: &str) -> &'a str {
    let i = s.find(before).unwrap_or_else(|| panic!("no {before:?}")) + before.len();
    let n = s[i..].find(after).unwrap_or_else(|| panic!("no {after:?}"));
    &s[i..i + n]
}

/// Compares doc numbers with report values at the doc's precision.
#[derive(Default)]
struct Checker {
    checked: usize,
    mismatches: Vec<String>,
}

impl Checker {
    fn check(&mut self, what: &str, doc: &str, report: f64) {
        let doc = doc.trim();
        let decimals = doc.split_once('.').map_or(0, |(_, frac)| frac.len());
        let rounded = format!("{report:.decimals$}");
        self.checked += 1;
        if rounded != doc {
            self.mismatches
                .push(format!("{what}: doc reads {doc}, report reads {report}"));
        }
    }
}

/// The measured cells of a doc table: (first cell, last cell) per row.
fn doc_rows(section: &str) -> Vec<(&str, &str)> {
    section
        .lines()
        .filter(|l| l.starts_with("| ")) // not the `|---|` separator
        .skip(1) // header
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
            (cells[0], cells[cells.len() - 1])
        })
        .collect()
}

/// The report's Table 2 row `dE_<name>`: its P36, P24 and P12 values.
fn solved(report: &str, name: &str) -> Vec<f64> {
    let rep = report_section(report, "table2_microop_energy");
    let key = format!("dE_{name}");
    let line = rep
        .lines()
        .find(|l| l.split_whitespace().next().map(|t| t.trim_end_matches(',')) == Some(&key))
        .unwrap_or_else(|| panic!("no report row {key}"));
    let tokens: Vec<&str> = line.split_whitespace().collect();
    tokens[tokens.len() - 3..].iter().map(|t| num(t)).collect()
}

/// Table 2: `dE_<name> P36 P24 P12` rows, keyed by `<name>`.
fn table2(c: &mut Checker, doc: &str, report: &str) {
    let rows = doc_rows(doc_section(doc, "## Table 2"));
    assert_eq!(rows.len(), 7, "Table 2 rows");
    for (label, measured) in rows {
        let cells: Vec<&str> = measured.split(" / ").collect();
        if let Some(names) = label.strip_suffix(" (P36)") {
            // "add / nop (P36)": one P36 value per named micro-op.
            for (name, cell) in names.split(" / ").zip(&cells) {
                c.check(
                    &format!("Table 2 {name} P36"),
                    cell,
                    solved(report, name)[0],
                );
            }
        } else {
            // "L3 (= pf^L2)": P36 / P24 / P12 of one micro-op.
            let name = label.split(" (").next().unwrap_or(label);
            assert_eq!(cells.len(), 3, "Table 2 {label}");
            for ((ps, cell), v) in ["P36", "P24", "P12"]
                .iter()
                .zip(&cells)
                .zip(solved(report, name))
            {
                c.check(&format!("Table 2 {name} {ps}"), cell, v);
            }
        }
    }
}

/// Table 3: the measured accuracy range and mean.
fn table3(c: &mut Checker, doc: &str, report: &str) {
    let rep = report_section(report, "table3_verification");
    let accs: Vec<f64> = rep
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| num(l.split_whitespace().last().expect("acc% column")))
        .collect();
    assert_eq!(accs.len(), 7, "Table 3 verification rows");
    let lo = accs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = accs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean = num(between(rep, "average accuracy: ", "%"));

    // "Paper: …. Measured: lo–hi %, **mean m %**."
    let text = doc_section(doc, "## Table 3");
    let measured = &text[text.find("Measured: ").expect("Table 3 measured")..];
    let (doc_lo, doc_hi) = between(measured, "Measured: ", " %")
        .split_once('–')
        .expect("Table 3 range");
    c.check("Table 3 lowest accuracy", doc_lo, lo);
    c.check("Table 3 highest accuracy", doc_hi, hi);
    c.check(
        "Table 3 mean accuracy",
        between(measured, "mean ", " %"),
        mean,
    );
}

/// Fig. 1: idle and busy power of the trace, and the background share.
fn fig01(c: &mut Checker, doc: &str, report: &str) {
    let rep = report_section(report, "fig01_energy_timeline");
    let watts = |phase: &str| -> Vec<f64> {
        rep.lines()
            .filter(|l| l.split_whitespace().nth(2) == Some(phase))
            .map(|l| num(l.split_whitespace().nth(1).expect("watts")))
            .collect()
    };
    let (idle, busy) = (watts("idle"), watts("BUSY"));
    assert!(!idle.is_empty() && !busy.is_empty(), "Fig. 1 trace rows");
    let share = rep
        .lines()
        .find(|l| l.ends_with("% background)"))
        .expect("Fig. 1 background line");
    let background = num(between(share, "(", "% background)"));

    let text = doc_section(doc, "## Fig. 1");
    let doc_idle = between(text, "Idle ≈ ", " W");
    for (i, &w) in idle.iter().enumerate() {
        c.check(&format!("Fig. 1 idle sample {i}"), doc_idle, w);
    }
    let (doc_lo, doc_hi) = between(text, "busy ", " W")
        .split_once('–')
        .expect("Fig. 1 busy range");
    let lo = busy.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = busy.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    c.check("Fig. 1 lowest busy power", doc_lo, lo);
    c.check("Fig. 1 highest busy power", doc_hi, hi);
    c.check(
        "Fig. 1 background share",
        between(text, "Background ≈ ", " %"),
        background,
    );
}

/// Fig. 5: per-engine bucket counts and median P36 residency.
fn fig05(c: &mut Checker, doc: &str, report: &str) {
    let rep = report_section(report, "fig05_pstate_distribution");
    let rows = doc_rows(doc_section(doc, "## Fig. 5"));
    assert_eq!(rows.len(), 3, "Fig. 5 rows");
    for (engine, measured) in rows {
        let line = rep
            .lines()
            .find(|l| l.split_whitespace().next() == Some(engine))
            .unwrap_or_else(|| panic!("no report row {engine}"));
        let tokens: Vec<&str> = line.split_whitespace().skip(1).collect();
        let (counts, median) = measured.split_once(", median ").expect("Fig. 5 cell");
        let counts: Vec<&str> = counts.split('/').collect();
        assert_eq!((counts.len(), tokens.len()), (5, 6), "Fig. 5 {engine}");
        for (i, (cell, t)) in counts.iter().zip(&tokens).enumerate() {
            c.check(&format!("Fig. 5 {engine} bucket {i}"), cell, num(t));
        }
        let median = median.trim_end_matches('%').trim();
        c.check(&format!("Fig. 5 {engine} median"), median, num(tokens[5]));
    }
}

/// A README cell's number as the report would print it: the unit dropped,
/// a typographic minus made ASCII and a leading plus sign dropped.
fn readme_num(cell: &str) -> String {
    cell.trim()
        .trim_end_matches(" nJ")
        .trim_end_matches('%')
        .trim()
        .replace('−', "-")
        .trim_start_matches('+')
        .to_string()
}

/// A README cell `a…b` (or a single value) against the lowest and the
/// highest of `values`.
fn check_range(c: &mut Checker, what: &str, cell: &str, values: &[f64]) {
    let (a, b) = cell.split_once('…').unwrap_or((cell, cell));
    let (a, b) = (readme_num(a), readme_num(b));
    let (lo, hi) = if num(&a) <= num(&b) { (a, b) } else { (b, a) };
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    c.check(&format!("{what} lowest"), &lo, min);
    c.check(&format!("{what} highest"), &hi, max);
}

/// README's highlights table: the `here` column of every row. The report
/// words §5's figures as a loss and a saving ("perf loss +6.9%", "Eactive
/// saving 44.9%"); README signs them as changes (−6.9 %, −44.9 %).
fn readme_highlights(c: &mut Checker, readme: &str, report: &str) {
    let rows = doc_rows(section(readme, "\nHighlights, paper vs.", "\n## "));
    assert_eq!(rows.len(), 7, "README highlights rows");
    for (label, here) in rows {
        let cells: Vec<&str> = here.split(" / ").collect();
        let mut check_all = |values: &[f64]| {
            assert_eq!(cells.len(), values.len(), "README {label}");
            for (i, (cell, &v)) in cells.iter().zip(values).enumerate() {
                c.check(&format!("README {label}, value {i}"), &readme_num(cell), v);
            }
        };
        if label.starts_with("Fig. 6 ") {
            let rep = report_section(report, "fig06_basic_ops");
            let shares: Vec<f64> = rep
                .lines()
                .filter(|l| l.starts_with("summary:"))
                .map(|l| num(between(l, "EL1D+EReg2L1D ", "%")))
                .collect();
            check_all(&shares);
        } else if label.starts_with("Table 2 ") {
            let (l1d, mem) = here.split_once(" → ").expect("Table 2 cell");
            c.check(
                "README Table 2 L1D",
                &readme_num(l1d),
                solved(report, "L1D")[0],
            );
            c.check(
                "README Table 2 mem",
                &readme_num(mem),
                solved(report, "mem")[0],
            );
        } else if label.starts_with("Table 3 ") {
            let rep = report_section(report, "table3_verification");
            check_all(&[num(between(rep, "average accuracy: ", "%"))]);
        } else if label.starts_with("Table 5 ") {
            let rep = report_section(report, "table5_memory_bound");
            let p36 = rep
                .lines()
                .find(|l| l.starts_with("P36 "))
                .expect("Table 5 P36 row");
            let stall = p36.split('(').nth(2).expect("Estall share");
            check_all(&[num(stall.split('%').next().unwrap_or(stall))]);
        } else if label.starts_with("Fig. 11 ") {
            let rep = report_section(report, "fig11_pstates");
            let change = |at: &str| -> Vec<f64> {
                rep.lines()
                    .filter(|l| l.contains(": Eactive P24 = "))
                    .map(|l| num(between(l, &format!("{at} = "), "%")))
                    .collect()
            };
            assert_eq!(cells.len(), 2, "README {label}");
            check_range(c, "README Fig. 11 P24", cells[0], &change("P24"));
            check_range(c, "README Fig. 11 P12", cells[1], &change("P12"));
        } else if label.starts_with("§4.3 ") {
            let rep = report_section(report, "fig13_dtcm_poc");
            check_all(&[
                num(between(rep, "peak saving ", "%")),
                num(between(rep, "average saving ", "%")),
                num(between(rep, "average perf ", "%")),
            ]);
        } else if label.starts_with("§5 ") {
            let rep = report_section(report, "sec5_dvfs_tradeoff");
            let b_mem = between(rep, "B_mem (memory-bound):\n", "\n");
            check_all(&[
                -num(between(b_mem, "perf loss ", "%")),
                -num(between(b_mem, "Eactive saving ", "%")),
                num(between(b_mem, "energy-efficiency ", "%")),
            ]);
        } else {
            panic!("README highlights row {label:?} has no report source");
        }
    }
}

#[test]
fn readme_highlights_agree_with_the_golden_report() {
    let readme = read("README.md");
    let report = read("bench_output_repro.txt");
    let mut c = Checker::default();
    readme_highlights(&mut c, &readme, &report);
    assert_eq!(c.checked, 17, "README highlights numbers checked");
    assert!(
        c.mismatches.is_empty(),
        "README.md disagrees with bench_output_repro.txt:\n{}",
        c.mismatches.join("\n")
    );
}

#[test]
fn experiments_md_agrees_with_the_golden_report() {
    let doc = read("EXPERIMENTS.md");
    let report = read("bench_output_repro.txt");
    let mut c = Checker::default();
    table2(&mut c, &doc, &report);
    table3(&mut c, &doc, &report);
    fig01(&mut c, &doc, &report);
    fig05(&mut c, &doc, &report);
    assert!(c.checked >= 40, "only {} numbers checked", c.checked);
    assert!(
        c.mismatches.is_empty(),
        "EXPERIMENTS.md disagrees with bench_output_repro.txt:\n{}",
        c.mismatches.join("\n")
    );
}
