//! Triangle counting algorithms (Sections 2.1, 3, and the Table 1 baseline
//! rows).

mod distinguish;
mod kernel;
mod multi_level;
mod one_pass;
mod random_order;
mod sharded;
mod three_pass;
mod triest;
mod triest_fd;
mod two_pass;

pub(crate) use triest::SampleAdjacency;
mod wedge_sampler;

pub use distinguish::{DistinguishVerdict, TriangleDistinguisher};
pub use kernel::TriangleEstimate;
pub use multi_level::{MultiLevelEstimate, MultiLevelTriangle};
pub use one_pass::{OnePassEstimate, OnePassTriangle};
pub use random_order::{RandomOrderEstimate, RandomOrderTriangle};
pub use sharded::{ShardedTriangle, ShardedTriangleConfig};
pub use three_pass::ThreePassTriangle;
pub use triest::{TriestBase, TriestEstimate};
pub use triest_fd::TriestFd;
pub use two_pass::{TwoPassTriangle, TwoPassTriangleConfig};
pub use wedge_sampler::{WedgeSamplerEstimate, WedgeSamplerTriangle};
