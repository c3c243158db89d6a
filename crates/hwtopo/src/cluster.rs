//! Cluster specifications: one or more instances tied by the VM network.
//!
//! The paper's experiments use either a single instance or several
//! identical instances connected over the AWS network (e.g. "p3.8xlarge*2").

use serde::Serialize;

use crate::error::TopoError;
use crate::instance::{by_name, InstanceType};

/// The most instances [`ClusterSpec::parse`] accepts in `<type>*<count>`:
/// far above any simulated cluster, and checked before a single instance
/// is cloned, so a hostile count cannot ask for billions of them.
pub const MAX_REPLICAS: usize = 1024;

/// A set of instances participating in one data-parallel training job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterSpec {
    /// Member instances. All GPUs of every member participate.
    pub instances: Vec<InstanceType>,
}

impl ClusterSpec {
    /// Single-instance cluster.
    #[must_use]
    pub fn single(instance: InstanceType) -> Self {
        ClusterSpec {
            instances: vec![instance],
        }
    }

    /// `count` identical instances connected via the network (the paper's
    /// `"<type>*<count>"` notation).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn homogeneous(instance: InstanceType, count: usize) -> Self {
        assert!(count > 0, "a cluster needs at least one instance");
        ClusterSpec {
            instances: std::iter::repeat_with(|| instance.clone())
                .take(count)
                .collect(),
        }
    }

    /// Like [`ClusterSpec::homogeneous`] but with a typed error instead
    /// of a panic, for callers fed untrusted counts.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::InvalidCluster`] for `count == 0` and
    /// [`TopoError::InvalidInstance`] for a hostile instance description.
    pub fn try_homogeneous(instance: InstanceType, count: usize) -> Result<Self, TopoError> {
        if count == 0 {
            return Err(TopoError::InvalidCluster(
                "a cluster needs at least one instance".into(),
            ));
        }
        instance.validate()?;
        Ok(ClusterSpec::homogeneous(instance, count))
    }

    /// Rejects empty clusters and hostile member instances.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::InvalidCluster`] when the cluster has no
    /// instances, or the first member's [`TopoError::InvalidInstance`].
    pub fn validate(&self) -> Result<(), TopoError> {
        if self.instances.is_empty() {
            return Err(TopoError::InvalidCluster(
                "cluster has no instances (empty topology)".into(),
            ));
        }
        for inst in &self.instances {
            inst.validate()?;
        }
        Ok(())
    }

    /// Total number of GPUs across the cluster (the DDP world size).
    #[must_use]
    pub fn world_size(&self) -> usize {
        self.instances.iter().map(|i| i.gpu_count).sum()
    }

    /// Number of instances.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.instances.len()
    }

    /// Whether training crosses the VM network.
    #[must_use]
    pub fn is_distributed(&self) -> bool {
        self.instances.len() > 1
    }

    /// Combined price per hour, USD.
    #[must_use]
    pub fn price_per_hour(&self) -> f64 {
        self.instances.iter().map(|i| i.price_per_hour).sum()
    }

    /// Parses the paper's cluster notation: an instance name optionally
    /// followed by `*<count>` (e.g. `"p3.8xlarge*2"`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown instances or invalid
    /// counts: zero, unreadable, or above [`MAX_REPLICAS`].
    pub fn parse(spec: &str) -> Result<ClusterSpec, String> {
        let (name, count) = match spec.split_once('*') {
            Some((n, c)) => (
                n,
                c.parse::<usize>()
                    .map_err(|_| format!("bad replica count in '{spec}'"))?,
            ),
            None => (spec, 1),
        };
        if count == 0 {
            return Err("replica count must be positive".into());
        }
        if count > MAX_REPLICAS {
            return Err(format!(
                "replica count {count} in '{spec}' is above the limit of {MAX_REPLICAS} instances"
            ));
        }
        let inst = by_name(name).ok_or_else(|| format!("unknown instance '{name}'"))?;
        Ok(ClusterSpec::homogeneous(inst, count))
    }

    /// Display name: `"p3.8xlarge"` or `"p3.8xlarge*2"` for homogeneous
    /// clusters, comma-joined names otherwise.
    #[must_use]
    pub fn display_name(&self) -> String {
        let first = &self.instances[0].name;
        if self.instances.iter().all(|i| &i.name == first) {
            if self.instances.len() == 1 {
                first.clone()
            } else {
                format!("{first}*{}", self.instances.len())
            }
        } else {
            self.instances
                .iter()
                .map(|i| i.name.as_str())
                .collect::<Vec<_>>()
                .join(",")
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::instance::{p2_8xlarge, p3_16xlarge, p3_8xlarge};

    #[test]
    fn world_size_sums_gpus() {
        let c = ClusterSpec::homogeneous(p3_8xlarge(), 2);
        assert_eq!(c.world_size(), 8);
        assert_eq!(c.node_count(), 2);
        assert!(c.is_distributed());
    }

    #[test]
    fn single_is_not_distributed() {
        let c = ClusterSpec::single(p3_16xlarge());
        assert!(!c.is_distributed());
        assert_eq!(c.world_size(), 8);
    }

    #[test]
    fn display_name_uses_star_notation() {
        assert_eq!(
            ClusterSpec::single(p3_8xlarge()).display_name(),
            "p3.8xlarge"
        );
        assert_eq!(
            ClusterSpec::homogeneous(p3_8xlarge(), 2).display_name(),
            "p3.8xlarge*2"
        );
        let mixed = ClusterSpec {
            instances: vec![p3_8xlarge(), p2_8xlarge()],
        };
        assert_eq!(mixed.display_name(), "p3.8xlarge,p2.8xlarge");
    }

    #[test]
    fn price_sums_members() {
        let c = ClusterSpec::homogeneous(p2_8xlarge(), 2);
        assert_eq!(c.price_per_hour(), 14.40);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_homogeneous_rejected() {
        let _ = ClusterSpec::homogeneous(p2_8xlarge(), 0);
    }

    #[test]
    fn try_homogeneous_rejects_hostile_input_with_typed_errors() {
        assert!(matches!(
            ClusterSpec::try_homogeneous(p2_8xlarge(), 0),
            Err(TopoError::InvalidCluster(_))
        ));
        let mut inst = p2_8xlarge();
        inst.network_gbps = f64::NAN;
        assert!(matches!(
            ClusterSpec::try_homogeneous(inst, 2),
            Err(TopoError::InvalidInstance { .. })
        ));
        assert!(ClusterSpec::try_homogeneous(p2_8xlarge(), 2).is_ok());
    }

    #[test]
    fn empty_cluster_fails_validation() {
        let empty = ClusterSpec { instances: vec![] };
        assert!(matches!(
            empty.validate(),
            Err(TopoError::InvalidCluster(_))
        ));
        assert!(ClusterSpec::single(p3_16xlarge()).validate().is_ok());
    }

    #[test]
    fn parse_round_trips_display_names() {
        for spec in ["p3.16xlarge", "p3.8xlarge*2", "p2.xlarge"] {
            let c = ClusterSpec::parse(spec).unwrap();
            assert_eq!(c.display_name(), spec);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ClusterSpec::parse("m5.large").is_err());
        assert!(ClusterSpec::parse("p3.8xlarge*0").is_err());
        assert!(ClusterSpec::parse("p3.8xlarge*x").is_err());
        assert!(ClusterSpec::parse("p3.8xlarge*99999999999999999999").is_err());
    }

    #[test]
    fn parse_bounds_the_replica_count() {
        let max = ClusterSpec::parse(&format!("p2.xlarge*{MAX_REPLICAS}")).unwrap();
        assert_eq!(max.node_count(), MAX_REPLICAS);
        let err = ClusterSpec::parse(&format!("p2.xlarge*{}", MAX_REPLICAS + 1)).unwrap_err();
        assert!(err.contains("above the limit of 1024"), "{err}");
        let err = ClusterSpec::parse("nonesuch*1000000000").unwrap_err();
        assert!(err.contains("above the limit"), "{err}");
    }
}
