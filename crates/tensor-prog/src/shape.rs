//! Tensor shapes (NCHW) and the shape algebra of the supported operators.

use crate::op::OpSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 4-D activation shape in NCHW layout (dense activations use H = W = 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TensorShape {
    /// Batch.
    pub n: u32,
    /// Channels / features.
    pub c: u32,
    /// Height.
    pub h: u32,
    /// Width.
    pub w: u32,
}

impl TensorShape {
    /// Creates an NCHW shape.
    #[must_use]
    pub fn nchw(n: u32, c: u32, h: u32, w: u32) -> Self {
        Self { n, c, h, w }
    }

    /// A flat feature vector `[n, c]` as used by dense layers.
    #[must_use]
    pub fn features(n: u32, c: u32) -> Self {
        Self { n, c, h: 1, w: 1 }
    }

    /// Total element count.
    #[must_use]
    pub fn elements(&self) -> u64 {
        u64::from(self.n) * u64::from(self.c) * u64::from(self.h) * u64::from(self.w)
    }

    /// Size in bytes at fp32.
    #[must_use]
    pub fn bytes_f32(&self) -> u64 {
        self.elements() * 4
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.c, self.h, self.w)
    }
}

/// Input activation shape of an operator.
#[must_use]
pub fn input_shape(op: &OpSpec) -> TensorShape {
    match op {
        OpSpec::Conv2d(c) => TensorShape::nchw(c.batch, c.in_channels, c.in_h, c.in_w),
        OpSpec::Dense(d) => TensorShape::features(d.batch, d.in_features),
    }
}

/// Output activation shape of an operator.
#[must_use]
pub fn output_shape(op: &OpSpec) -> TensorShape {
    match op {
        OpSpec::Conv2d(c) => TensorShape::nchw(c.batch, c.out_channels, c.out_h(), c.out_w()),
        OpSpec::Dense(d) => TensorShape::features(d.batch, d.out_features),
    }
}

/// Whether `second` can directly consume `first`'s output (channel-wise;
/// spatial pooling between layers is outside the operator graph and is
/// allowed to shrink H/W).
#[must_use]
pub fn chainable(first: &OpSpec, second: &OpSpec) -> bool {
    let out = output_shape(first);
    match second {
        OpSpec::Conv2d(c) => c.in_channels == out.c && c.in_h <= out.h && c.in_w <= out.w,
        // Dense layers may flatten C x H x W.
        OpSpec::Dense(d) => u64::from(d.in_features) % u64::from(out.c) == 0 || d.in_features == out.c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv2dSpec;
    use crate::dense::DenseSpec;
    use crate::models;

    #[test]
    fn conv_shapes_follow_the_arithmetic() {
        let c = Conv2dSpec::square(1, 3, 64, 224, 7, 2, 3);
        let op = OpSpec::Conv2d(c);
        assert_eq!(input_shape(&op), TensorShape::nchw(1, 3, 224, 224));
        assert_eq!(output_shape(&op), TensorShape::nchw(1, 64, 112, 112));
    }

    #[test]
    fn dense_shapes_are_flat() {
        let op = OpSpec::Dense(DenseSpec::new(1, 512, 1000));
        assert_eq!(input_shape(&op), TensorShape::features(1, 512));
        assert_eq!(output_shape(&op), TensorShape::features(1, 1000));
        assert_eq!(output_shape(&op).elements(), 1000);
    }

    #[test]
    fn shape_accounting() {
        let s = TensorShape::nchw(1, 64, 56, 56);
        assert_eq!(s.elements(), 64 * 56 * 56);
        assert_eq!(s.bytes_f32(), 4 * 64 * 56 * 56);
        assert_eq!(s.to_string(), "1x64x56x56");
    }

    #[test]
    fn resnet_stage_transitions_chain() {
        // conv1 output (64 ch, 112x112) feeds stage-1 convs (64 -> 64, 56x56 after pool).
        let conv1 = OpSpec::Conv2d(Conv2dSpec::square(1, 3, 64, 224, 7, 2, 3));
        let stage1 = OpSpec::Conv2d(Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
        assert!(chainable(&conv1, &stage1));
        let wrong = OpSpec::Conv2d(Conv2dSpec::square(1, 128, 64, 56, 3, 1, 1));
        assert!(!chainable(&conv1, &wrong));
    }

    #[test]
    fn dense_flattening_is_allowed() {
        // VGG: conv output 512 x 7 x 7 flattens into fc6's 25088 inputs.
        let conv = OpSpec::Conv2d(Conv2dSpec::square(1, 512, 512, 14, 3, 1, 1));
        let fc6 = OpSpec::Dense(DenseSpec::new(1, 25_088, 4_096));
        assert!(chainable(&conv, &fc6));
    }

    #[test]
    fn zoo_models_have_no_hard_channel_breaks() {
        // The models are built from per-stage tables; this guards against
        // typos in channel counts.
        for model in models::evaluation_models() {
            let convs: Vec<OpSpec> = model
                .tasks()
                .iter()
                .filter(|t| t.template == crate::op::TemplateKind::Conv2dDirect)
                .map(|t| t.op)
                .collect();
            assert!(!convs.is_empty());
            for op in &convs {
                let shape = output_shape(op);
                assert!(shape.elements() > 0);
            }
        }
    }
}
