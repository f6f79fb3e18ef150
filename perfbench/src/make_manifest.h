#pragma once

#include <string>

namespace perfbench {

/// Writes the whole catalogue, every kind, with serial verdicts to `path`.
int write_manifest_main(const std::string& path);

}  // namespace perfbench
