/* The one C primitive of [Channel]: hand the CPU to any other runnable
   thread.  OCaml's [Thread.yield] only switches between systhreads of
   one domain, and a zero-length [Unix.sleepf] sleeps for the kernel's
   timer slack (about 50 µs on Linux); a spin-waiter needs the plain
   [sched_yield] so that a counterpart scheduled on its core can run
   (docs/RUNTIME.md §6).  No allocation, no exception, no runtime-lock
   release: the call returns within a scheduler pass. */

#include <sched.h>
#include <caml/mlvalues.h>

value shield_channel_yield(value unit)
{
  (void)unit;
  sched_yield();
  return Val_unit;
}
