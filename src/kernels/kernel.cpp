#include "kernels/kernel.hpp"

#include "kernels/registry.hpp"
#include "util/logging.hpp"

namespace kb {

RatioPoint
Kernel::measureRatioPoint(std::uint64_t n_hint, std::uint64_t m) const
{
    const auto r = measure(regimeProblemSize(n_hint, m), m, false);
    RatioPoint p;
    p.m = m;
    p.comp_ops = r.cost.comp_ops;
    p.io_words = r.cost.io_words;
    p.ratio = r.cost.ratio();
    return p;
}

namespace {

/**
 * The paper's twelve computations, in Section 3 presentation order.
 * This table is the only place the id enum and registry names meet;
 * the concrete classes register themselves (see registry.hpp).
 */
constexpr struct
{
    KernelId id;
    const char *name;
} kBuiltins[] = {
    {KernelId::MatMul, "matmul"},
    {KernelId::Triangularization, "triangularization"},
    {KernelId::QR, "qr"},
    {KernelId::Grid1D, "grid1d"},
    {KernelId::Grid2D, "grid2d"},
    {KernelId::Grid3D, "grid3d"},
    {KernelId::Grid4D, "grid4d"},
    {KernelId::Fft, "fft"},
    {KernelId::Sort, "sorting"},
    {KernelId::MatVec, "matvec"},
    {KernelId::TriSolve, "trisolve"},
    {KernelId::SpMV, "spmv"},
};

} // namespace

const char *
kernelIdName(KernelId id)
{
    for (const auto &b : kBuiltins)
        if (b.id == id)
            return b.name;
    return "?";
}

bool
kernelIdFromName(const std::string &name, KernelId &id)
{
    for (const auto &b : kBuiltins) {
        if (name == b.name) {
            id = b.id;
            return true;
        }
    }
    return false;
}

std::unique_ptr<Kernel>
makeKernel(KernelId id)
{
    return KernelRegistry::instance().make(kernelIdName(id));
}

std::unique_ptr<Kernel>
makeKernel(const std::string &name)
{
    return KernelRegistry::instance().make(name);
}

std::vector<KernelId>
allKernelIds()
{
    std::vector<KernelId> out;
    for (const auto &b : kBuiltins)
        out.push_back(b.id);
    return out;
}

std::vector<KernelId>
computeBoundKernelIds()
{
    std::vector<KernelId> out;
    for (const auto &name :
         KernelRegistry::instance().computeBoundNames()) {
        KernelId id;
        if (kernelIdFromName(name, id))
            out.push_back(id);
    }
    return out;
}

} // namespace kb
