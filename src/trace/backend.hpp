/**
 * @file
 * Emission shim kept only for the repository benchmark under
 * perfbench/, whose frozen sources still emit through
 * activeTraceBackend().emit(...) and report activeTraceBackendName().
 * Both forward to the one emission path, Kernel::emitTrace. Nothing
 * in src/, bench/, tests/ or examples/ includes this header; it goes
 * when the benchmark is next revised.
 */

#pragma once

#include <cstdint>
#include <string>

#include "kernels/kernel.hpp"

namespace kb {

struct ScalarTraceEmitter
{
    void emit(const Kernel &kernel, std::uint64_t n, std::uint64_t m,
              TraceSink &sink) const
    {
        kernel.emitTrace(n, m, sink);
    }
};

inline ScalarTraceEmitter activeTraceBackend() { return {}; }

inline std::string activeTraceBackendName() { return "scalar"; }

} // namespace kb
