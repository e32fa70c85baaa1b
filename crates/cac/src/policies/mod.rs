//! Classical CAC baseline policies from the paper's related-work survey
//! (§1): Complete Sharing and the Guard Channel.

mod complete_sharing;
mod guard_channel;

pub use complete_sharing::CompleteSharing;
pub use guard_channel::GuardChannel;
