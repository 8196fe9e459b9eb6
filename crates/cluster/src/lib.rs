//! Clustering — Step 3 of the paper's pipeline.
//!
//! "Images are clustered using a density-based algorithm. Our current
//! implementation uses DBSCAN, mainly because it can discover clusters of
//! arbitrary shape and performs well over large, noisy datasets" (§2.2).
//! The paper clusters fringe-community images at `eps = 8`, `minPts = 5`
//! (Appendix A), then represents each cluster by its **medoid** — "the
//! element with the minimum square average distance from all images in
//! the cluster".
//!
//! * [`mod@dbscan`] — DBSCAN over precomputed radius neighbourhoods (from
//!   `meme-index`), deterministic in input order; the pipeline clusters
//!   the distinct hashes of a duplicate-collapsed corpus
//!   ([`try_dbscan_distinct`]), weighting each by its copies, and gets
//!   the same per-post labels as post-level [`try_dbscan`];
//! * [`medoid`] — medoid selection over Hamming distances, scored over a
//!   cluster's distinct hashes;
//! * [`hier`] — agglomerative average-linkage clustering producing the
//!   dendrograms of Fig. 6 and the threshold cuts used by the custom
//!   distance-metric analysis;
//! * [`purity`] — ground-truth cluster-quality audits (false-positive
//!   fractions, Fig. 17) that the paper did by hand over 200 sampled
//!   clusters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbscan;
pub mod hier;
pub mod medoid;
pub mod purity;

pub use dbscan::{try_dbscan, try_dbscan_distinct, ClusterError, Clustering, DbscanParams};
pub use hier::{Dendrogram, Linkage};
pub use medoid::{medoid_of, medoid_of_hashes};
pub use purity::{cluster_false_positive_fractions, majority_purity};
