// Weight (de)serialization: a simple self-describing binary format so a
// trained policy can be saved offline and loaded for online inference
// (paper Sec. VI-D: the model is trained once offline, then deployed).
//
// Format: magic "MLCRNN1\n", u64 parameter count, then per parameter:
// u64 name length + bytes, u64 rows, u64 cols, rows*cols f32 values.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace mlcr::nn {

/// Serialize all parameters of `module` (in collect order) to `os`.
void save_parameters(Module& module, std::ostream& os);
void save_parameters(Module& module, const std::string& path);

/// Load parameters into `module`. The module must have the same parameter
/// names/shapes in the same order; throws CheckError on any mismatch and on
/// a non-finite weight, naming the parameter.
void load_parameters(Module& module, std::istream& is);
void load_parameters(Module& module, const std::string& path);

/// Copy parameter values from `src` to `dst` (same structure). Used to sync
/// the DQN target network.
void copy_parameters(Module& src, Module& dst);

}  // namespace mlcr::nn
