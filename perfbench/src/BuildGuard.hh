/**
 * @file
 * Refuse to report timings from a build whose timings mean nothing:
 * one compiled without optimisation or with a sanitizer.
 */

#ifndef PERFBENCH_BUILDGUARD_HH
#define PERFBENCH_BUILDGUARD_HH

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {

/** Why timings from this build must not be reported, or nullptr. */
constexpr const char *
timingRefusal()
{
#if !defined(__OPTIMIZE__)
    return "unoptimised build (__OPTIMIZE__ is not defined)";
#elif defined(PERFBENCH_SANITIZED)
    return "sanitizer build";
#else
    return nullptr;
#endif
}

} // namespace perfbench

#endif // PERFBENCH_BUILDGUARD_HH
