/* Thread placement and idle vCPUs for the benchmark.
 *
 * A new thread inherits the CPU mask of the thread that creates it, so
 * the benchmark restricts its own thread before it makes a pool's
 * domains and again afterwards (see Util.pinned).  sched_setaffinity
 * with pid 0 acts on the calling thread only.
 *
 * In a VM, a vCPU with nothing to run halts, and waking it goes
 * through the hypervisor, whose cost depends on the host's state.  The
 * keepers (see Util.awake) are plain threads, unknown to the OCaml
 * runtime, one per CPU, at SCHED_IDLE priority: they spin, so the vCPU
 * never halts, and any other thread woken on that CPU preempts them at
 * once.  This is what booting with idle=poll does for the whole machine.
 *
 * While they spin, the keepers also measure the time the host takes the
 * vCPU away without reporting it as steal.  Between two consecutive
 * readings of the clock, a keeper that the guest preempted gains no CPU
 * time; one whose vCPU the host stopped gains the whole interval, since
 * the guest believes it ran throughout.  An interval longer than
 * STALL_NS in which the keeper's CPU time grew by at least 90% of it
 * counts as a host stall.
 */
#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <time.h>

/* Restrict the calling thread to CPUs lo..hi-1; false when the kernel
   refuses (for instance where the CPUs do not exist). */
CAMLprim value perfbench_pin_cpus(value lo, value hi)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = Int_val(lo); c < Int_val(hi) && c < CPU_SETSIZE; c++)
    CPU_SET(c, &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

#define MAX_KEEPERS 256
#define STALL_NS 50000
static atomic_int keeping;
static pthread_t keepers[MAX_KEEPERS];
static int n_keepers;
/* Summed over the keepers: CPU time they ran, and host stalls within it. */
static atomic_long ran_ns, stalled_ns;

static long read_ns(clockid_t clock)
{
  struct timespec ts;
  clock_gettime(clock, &ts);
  return (long)ts.tv_sec * 1000000000L + ts.tv_nsec;
}

static void *keeper(void *arg)
{
  cpu_set_t set;
  struct sched_param sp = { 0 };
  CPU_ZERO(&set);
  CPU_SET((int)(intptr_t)arg, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0
      || pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp) != 0)
    return NULL;
  long wall = read_ns(CLOCK_MONOTONIC), cpu = read_ns(CLOCK_THREAD_CPUTIME_ID);
  while (atomic_load_explicit(&keeping, memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ volatile("yield");
#endif
    long wall1 = read_ns(CLOCK_MONOTONIC), cpu1 = read_ns(CLOCK_THREAD_CPUTIME_ID);
    long dw = wall1 - wall, dc = cpu1 - cpu;
    atomic_fetch_add_explicit(&ran_ns, dc, memory_order_relaxed);
    if (dw > STALL_NS && dc >= dw / 10 * 9)
      atomic_fetch_add_explicit(&stalled_ns, dw, memory_order_relaxed);
    wall = wall1;
    cpu = cpu1;
  }
  return NULL;
}

/* Start one keeper on each of CPUs 0..n-1; returns how many started. */
CAMLprim value perfbench_keepers_start(value n)
{
  atomic_store(&keeping, 1);
  n_keepers = 0;
  for (int c = 0; c < Int_val(n) && c < MAX_KEEPERS; c++)
    if (pthread_create(&keepers[n_keepers], NULL, keeper, (void *)(intptr_t)c) == 0)
      n_keepers++;
  return Val_int(n_keepers);
}

/* Stop the keepers and wait until each has ended. */
CAMLprim value perfbench_keepers_stop(value unit)
{
  (void)unit;
  atomic_store(&keeping, 0);
  for (int i = 0; i < n_keepers; i++)
    pthread_join(keepers[i], NULL);
  n_keepers = 0;
  return Val_unit;
}

/* Totals since the program started: CPU time the keepers ran, and the
   host stalls within it, in ns. */
CAMLprim value perfbench_keepers_ran_ns(value unit)
{
  (void)unit;
  return Val_long(atomic_load(&ran_ns));
}

CAMLprim value perfbench_keepers_stalled_ns(value unit)
{
  (void)unit;
  return Val_long(atomic_load(&stalled_ns));
}
