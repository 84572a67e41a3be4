/**
 * @file
 * Workload inputs: a seeded synthetic dataset whose frames are rendered
 * up front, plus the offline assets (BoW vocabulary, prior map) the
 * sessions share. Everything here is set-up; nothing is timed as part
 * of a frame.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "backend/map.hpp"
#include "backend/vocabulary.hpp"
#include "core/localizer.hpp"
#include "sim/dataset.hpp"

namespace locbench {

struct SceneSpec
{
    edx::SceneType scene = edx::SceneType::IndoorUnknown;
    edx::Platform platform = edx::Platform::Drone;
    int frames = 0;
    uint64_t seed = 1;
    int vocabulary_stride = 0; //!< train a vocabulary on every Nth frame
    int prior_map_stride = 0;  //!< build a prior map from every Nth frame
};

struct Scene
{
    std::unique_ptr<edx::Dataset> dataset;
    std::vector<edx::FrameInput> frames; //!< pre-rendered, by index
    std::unique_ptr<edx::Vocabulary> voc;
    std::unique_ptr<edx::Map> prior_map;
    size_t input_bytes = 0; //!< image bytes held by @ref frames

    double render_s = 0.0;
    double vocabulary_s = 0.0;
    double prior_map_s = 0.0;
};

/** Builds the dataset, renders every frame and trains the assets. */
Scene buildScene(const SceneSpec &spec);

} // namespace locbench
