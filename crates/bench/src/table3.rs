//! Table III — the evaluation datasets: paper dimensions and snapshot sizes alongside the
//! synthetic stand-in used at the current benchmark scale (see the scaled-device
//! methodology in the crate docs).

use datasets::all_datasets;

use crate::{fmt_ratio, Context, Experiment, Table};

pub(crate) fn run(ctx: &mut Context) -> Experiment {
    let title = "Table III: evaluation datasets (paper snapshot vs. synthetic benchmark slice)";
    let mut table = Table::new(title);
    let dims_str = |v: Vec<usize>| {
        v.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x")
    };
    for spec in all_datasets() {
        let field = ctx.field(spec.name);
        let mib = field.bytes() as f64 / (1024.0 * 1024.0);
        table.push_row(vec![
            ("dataset", spec.name.to_string()),
            ("domain", format!("{:?}", spec.domain)),
            ("paper dims", dims_str(spec.full_dims.as_vec())),
            ("paper MiB", format!("{:.1}", spec.paper_size_mib)),
            ("fields", spec.num_fields.to_string()),
            ("example fields", spec.example_fields.join(", ")),
            ("bench dims", dims_str(field.dims.as_vec())),
            ("bench MiB", format!("{:.1}", mib)),
            ("paper CR @1e-3", fmt_ratio(spec.paper_cr_1e3)),
        ]);
    }
    Experiment::new(vec![table], Vec::new(), Vec::new())
}
