/**
 * @file
 * ORB descriptors: oriented FAST + rotated BRIEF (Rublee et al., 2011).
 *
 * This is the "Feature Descriptor Calculation (FC)" task of the frontend
 * pipeline. Each key point gets an intensity-centroid orientation and a
 * 256-bit binary descriptor sampled from a fixed pseudo-random pattern
 * rotated to that orientation. Descriptors feed stereo matching and the
 * bag-of-words tracking backend.
 *
 * computeOrbDescriptorsInto() is the workspace form with a raw-pointer
 * interior fast path (row-pointer moment accumulation over precomputed
 * circle extents; unclamped bilinear taps for points far enough from
 * the border); on the AVX2 tier its interior BRIEF sampling runs 8
 * pairs per step (features/fast_avx2), bit-identical to the scalar
 * loop. computeOrbDescriptorsReference() retains the scalar
 * clamped-sampling formulation and never dispatches; the two are
 * bit-exact on every tier (golden-tested).
 */
#pragma once

#include <vector>

#include "features/keypoint.hpp"
#include "image/image.hpp"

namespace edx {

/** Half-size of the square patch the descriptor samples from. */
inline constexpr int kOrbPatchRadius = 15;

/**
 * Computes the intensity-centroid orientation of a patch around
 * (@p x, @p y); the point must be at least kOrbPatchRadius from the
 * image border.
 */
float orbOrientation(const ImageU8 &img, float x, float y);

/**
 * Computes ORB descriptors for @p kps on @p img (typically the Gaussian-
 * filtered image, as in the reference implementation). Orientations are
 * written back into the key points. Points too close to the border get
 * a zero descriptor.
 */
std::vector<Descriptor> computeOrbDescriptors(const ImageU8 &img,
                                              std::vector<KeyPoint> &kps);

/** computeOrbDescriptors into a caller-owned output (zero-alloc form). */
void computeOrbDescriptorsInto(const ImageU8 &img,
                               std::vector<KeyPoint> &kps,
                               std::vector<Descriptor> &out);

/** Scalar clamped-sampling reference (golden tests). */
std::vector<Descriptor> computeOrbDescriptorsReference(
    const ImageU8 &img, std::vector<KeyPoint> &kps);

/** Scalar reference of orbOrientation (golden tests). */
float orbOrientationReference(const ImageU8 &img, float x, float y);

} // namespace edx
