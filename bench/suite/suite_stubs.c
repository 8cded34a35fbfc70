/* Process accounting the OCaml Unix library does not expose: wait4(2) for
   the CPU time and peak resident set of one reaped child (which on Linux
   include the descendants that child reaped itself, such as fleet worker
   processes), getrusage(2) for the calling process, and the number of CPUs
   this process may run on. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static double seconds(struct timeval tv) { return (double)tv.tv_sec + (double)tv.tv_usec / 1e6; }

/* [| exit code (minus the signal number when killed); user s; system s;
      peak RSS KiB |] */
value suite_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_float_array(4);
  Store_double_flat_field(res, 0,
                          WIFEXITED(status)     ? WEXITSTATUS(status)
                          : WIFSIGNALED(status) ? -WTERMSIG(status)
                                                : -1);
  Store_double_flat_field(res, 1, seconds(ru.ru_utime));
  Store_double_flat_field(res, 2, seconds(ru.ru_stime));
  Store_double_flat_field(res, 3, (double)ru.ru_maxrss);
  CAMLreturn(res);
}

/* [| own CPU s; reaped children's CPU s; own peak RSS KiB; children's peak
      RSS KiB |] */
value suite_rusage(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  struct rusage self, children;
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  res = caml_alloc_float_array(4);
  Store_double_flat_field(res, 0, seconds(self.ru_utime) + seconds(self.ru_stime));
  Store_double_flat_field(res, 1, seconds(children.ru_utime) + seconds(children.ru_stime));
  Store_double_flat_field(res, 2, (double)self.ru_maxrss);
  Store_double_flat_field(res, 3, (double)children.ru_maxrss);
  CAMLreturn(res);
}

value suite_nproc(value unit)
{
  (void)unit;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return Val_int(CPU_COUNT(&set));
  return Val_long(sysconf(_SC_NPROCESSORS_ONLN));
}
