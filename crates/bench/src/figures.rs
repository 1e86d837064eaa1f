//! Regeneration of every table and figure of the paper's evaluation (§5).
//!
//! Each function returns the printable rows of one figure so that the
//! `figures` binary and the tests share the same code path. Quick scale
//! keeps every figure within seconds; `--full` uses the presets' own sizes
//! ([`Scale::Full`](crate::experiment::Scale::Full)).

pub mod accuracy;
pub mod data;
pub mod efficiency;
pub mod weights;

pub use accuracy::{fig13_single_path, fig14_kl_vs_cardinality, fig15_entropy};
pub use data::{fig3_sparseness, fig4_independence, fig5_bucket_selection};
pub use efficiency::{fig16_runtime, fig17_breakdown, fig18_routing};
pub use weights::{
    fig10_dataset_sizes, fig11_histogram_quality, fig12_memory, fig8_alpha, fig9_beta,
    table2_parameters,
};

/// A figure's output: a title plus printable rows.
#[derive(Debug, Clone)]
pub struct FigureOutput {
    /// Figure identifier, e.g. "Figure 14".
    pub id: String,
    /// Short description of what is being reproduced.
    pub title: String,
    /// Printable rows (already formatted, typically one series point per row).
    pub rows: Vec<String>,
}

impl FigureOutput {
    /// Renders the figure as text.
    pub fn render(&self) -> String {
        let mut out = format!("== {}: {} ==\n", self.id, self.title);
        for row in &self.rows {
            out.push_str(row);
            out.push('\n');
        }
        out
    }
}
