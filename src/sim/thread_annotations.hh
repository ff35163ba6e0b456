/**
 * @file
 * Clang Thread Safety Analysis annotation macros.
 *
 * These expand to the `capability`-family attributes when the
 * compiler is Clang (where `-Wthread-safety`, enabled by the
 * MERCURY_THREAD_SAFETY build option, turns lock-discipline
 * violations into compile errors) and to nothing everywhere else, so
 * GCC builds are unaffected. They are the static half of the
 * determinism contract: the golden/determinism suites prove runs are
 * byte-identical after the fact, the annotations prove no guarded
 * state can even be compiled without its lock.
 *
 * Usage follows the standard Clang mutex.h pattern: annotate the
 * lock with CAPABILITY via sim/sync.hh's Mutex, mark the data it
 * protects GUARDED_BY(that_mutex), and mark functions that expect
 * the lock held REQUIRES(that_mutex). tests/lint's thread-safety
 * negative-compile check demonstrates that removing an annotation or
 * touching a guarded field lock-free fails the Clang build.
 */

#ifndef MERCURY_SIM_THREAD_ANNOTATIONS_HH
#define MERCURY_SIM_THREAD_ANNOTATIONS_HH

#if defined(__clang__) && defined(__has_attribute)
#define MERCURY_TSA_HAS_ATTRIBUTE(x) __has_attribute(x)
#else
#define MERCURY_TSA_HAS_ATTRIBUTE(x) 0
#endif

#if MERCURY_TSA_HAS_ATTRIBUTE(capability)
#define MERCURY_TSA_ATTR(x) __attribute__((x))
#else
#define MERCURY_TSA_ATTR(x)  // not Clang: annotations compile away
#endif

/** Marks a type as a lockable capability (e.g. a mutex wrapper). */
#define CAPABILITY(x) MERCURY_TSA_ATTR(capability(x))

/** Marks an RAII type that acquires on construction and releases on
 * destruction. */
#define SCOPED_CAPABILITY MERCURY_TSA_ATTR(scoped_lockable)

/** Data member readable/writable only while holding the capability. */
#define GUARDED_BY(x) MERCURY_TSA_ATTR(guarded_by(x))

/** Pointer member whose *pointee* is protected by the capability. */
#define PT_GUARDED_BY(x) MERCURY_TSA_ATTR(pt_guarded_by(x))

/** Lock-ordering declarations (deadlock prevention). */
#define ACQUIRED_BEFORE(...) MERCURY_TSA_ATTR(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) MERCURY_TSA_ATTR(acquired_after(__VA_ARGS__))

/** Caller must hold the capability exclusively / shared. */
#define REQUIRES(...) MERCURY_TSA_ATTR(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
    MERCURY_TSA_ATTR(requires_shared_capability(__VA_ARGS__))

/** Function acquires / releases the capability. */
#define ACQUIRE(...) MERCURY_TSA_ATTR(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
    MERCURY_TSA_ATTR(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) MERCURY_TSA_ATTR(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
    MERCURY_TSA_ATTR(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
    MERCURY_TSA_ATTR(release_generic_capability(__VA_ARGS__))

/** Function acquires the capability when it returns `ret`. */
#define TRY_ACQUIRE(ret, ...) \
    MERCURY_TSA_ATTR(try_acquire_capability(ret, __VA_ARGS__))

/** Caller must NOT hold the capability (non-reentrancy guard). */
#define EXCLUDES(...) MERCURY_TSA_ATTR(locks_excluded(__VA_ARGS__))

/** Runtime assertion that the capability is held. */
#define ASSERT_CAPABILITY(x) MERCURY_TSA_ATTR(assert_capability(x))

/** Function returns a reference to the given capability. */
#define RETURN_CAPABILITY(x) MERCURY_TSA_ATTR(lock_returned(x))

/** Escape hatch; every use needs a comment explaining why the
 * analysis cannot see the synchronization. */
#define NO_THREAD_SAFETY_ANALYSIS \
    MERCURY_TSA_ATTR(no_thread_safety_analysis)

#endif // MERCURY_SIM_THREAD_ANNOTATIONS_HH
