/* Compiled simulation-kernel backend (the `compiled` entry of
 * repro.kernel.KERNELS).
 *
 * This extension re-implements the simulator's mechanical hot core —
 * EventLoop/Event, WorkItem/CpuCore, Timer, Link, DropTailQueue — as C
 * types that are drop-in constructor-compatible with their pure-python
 * counterparts. The pure modules remain the bit-identical determinism
 * reference (see DESIGN.md "Simulation kernel"); this file must never
 * change observable behaviour, only wall-clock cost.
 *
 * Determinism contract (mirrors repro.sim.engine):
 *   1. time is an integer nanosecond counter (int64 here; values in
 *      every supported workload fit comfortably),
 *   2. events fire in (when, seq) order where seq is a single shared
 *      insertion counter — every scheduling site, Python-visible or
 *      internal, consumes exactly one seq at the same logical point as
 *      the pure code, so tie-breaks are identical,
 *   3. float arithmetic is IEEE-754 double in both interpreters: the C
 *      expressions are transcribed verbatim from the pure modules
 *      (Python round() == C nearbyint() under the default half-even
 *      rounding mode; Python int() truncation == C double->int64 cast
 *      for the non-negative values used here).
 *
 * Like the pure loop, scheduling is a single binary heap with lazy
 * deletion and the same compaction policy, which gives the same total
 * (when, seq) order.
 *
 * Internal event kinds (CPU completion, link/queue tx-done, timer fire,
 * one-arg calls) carry no Python Event object and no args tuple — the
 * heap entry itself is the schedule record — which is where most of the
 * speedup over interpreted dispatch comes from.
 *
 * Tracing/profiling are pure-kernel features: constructors reject
 * enabled tracers and EventLoop.set_profiler raises, pointing at
 * `--kernel pure` (repro.core.experiment falls back automatically).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include "structmember.h"

#define NS_PER_SEC 1000000000LL

/* ---------------------------------------------------------------- types */

typedef struct CLoop CLoop;
typedef struct CEvent CEvent;
typedef struct CTimer CTimer;
typedef struct CWorkItem CWorkItem;
typedef struct CCore CCore;
typedef struct CLink CLink;
typedef struct CQueue CQueue;

enum {
    KIND_PY = 0,     /* a = CEvent (owns callback/args)                  */
    KIND_CPU = 1,    /* a = CCore, b = CWorkItem                         */
    KIND_LINK = 2,   /* a = CLink, b = Packet                            */
    KIND_QTX = 3,    /* a = CQueue                                       */
    KIND_TIMER = 4,  /* a = CTimer, tag = arming generation              */
    KIND_CALL1 = 5,  /* a = callable, b = single argument                */
};

typedef struct {
    int64_t when;
    int64_t seq;
    int64_t tag;
    int kind;
    PyObject *a;  /* owned */
    PyObject *b;  /* owned or NULL */
} HeapEntry;

struct CLoop {
    PyObject_HEAD
    HeapEntry *heap;
    Py_ssize_t heap_len;
    Py_ssize_t heap_cap;
    int64_t now;
    int64_t seq;
    int64_t events_processed;
    int64_t cancelled_in_heap;
    int64_t compactions;
    int running;
    int stopped;
    PyObject *context;   /* dict */
    PyObject *profiler;  /* always None (set_profiler(None) is allowed) */
};

struct CEvent {
    PyObject_HEAD
    int64_t when;
    int64_t seq;
    PyObject *callback;
    PyObject *args;  /* tuple */
    CLoop *loop;     /* owned */
    char cancelled;
    char fired;
};

struct CTimer {
    PyObject_HEAD
    CLoop *loop;        /* owned */
    PyObject *callback;
    PyObject *name;
    int64_t slack;
    int64_t fire_count;
    int64_t gen;        /* bumped every (re-)arm; heap entries carry the
                           generation they were armed with */
    int64_t when;
    int armed;
};

struct CWorkItem {
    PyObject_HEAD
    int64_t cycles;
    PyObject *callback;
    PyObject *name;
    int priority;
    int64_t submitted_at;
    int64_t started_at;
    int has_submitted;
    int has_started;
};

struct CCore {
    PyObject_HEAD
    CLoop *loop;       /* owned */
    double freq_hz;
    PyObject *name;
    /* two circular buffers of owned CWorkItem refs */
    PyObject **q;
    Py_ssize_t q_head, q_len, q_cap;
    PyObject **hq;
    Py_ssize_t hq_head, hq_len, hq_cap;
    PyObject *current;  /* owned CWorkItem or NULL */
    int64_t busy_ns_total;
    int64_t items_executed;
    int64_t cycles_executed;
    int64_t max_queue_depth;
    int64_t busy_since;
    int has_busy_since;
};

struct CLink {
    PyObject_HEAD
    CLoop *loop;      /* owned */
    double rate_bps;
    int64_t prop_delay_ns;
    PyObject *name;
    PyObject *sink;   /* owned or NULL (exposed as None) */
    /* circular buffer of owned Packet refs */
    PyObject **fifo;
    Py_ssize_t f_head, f_len, f_cap;
    int transmitting;
    int64_t packets_sent;
    int64_t bytes_sent;
    int64_t busy_ns;
};

struct CQueue {
    PyObject_HEAD
    CLoop *loop;          /* owned */
    PyObject *link;       /* owned; CLink fast path or any Link-alike */
    PyObject *input_link; /* owned or NULL (exposed as None) */
    int64_t capacity_segments;
    PyObject *name;
    PyObject *on_drop;    /* owned or NULL (exposed as None) */
    PyObject **fifo;
    Py_ssize_t f_head, f_len, f_cap;
    int64_t backlog_segments;
    int link_busy;
    int64_t enqueued_segments;
    int64_t dropped_segments;
    int64_t dropped_packets;
    int64_t max_backlog_segments;
    double backlog_sum_segments;
    int64_t backlog_samples;
};

static PyTypeObject CLoop_Type;
static PyTypeObject CEvent_Type;
static PyTypeObject CTimer_Type;
static PyTypeObject CWorkItem_Type;
static PyTypeObject CCore_Type;
static PyTypeObject CLink_Type;
static PyTypeObject CQueue_Type;

/* interned attribute names for the Python-object interop paths */
static PyObject *s_wire_bytes, *s_segments, *s_is_ack, *s_split_head,
    *s_rate_bps, *s_enabled, *s_send, *s_serialization_ns, *s_cwnd;

/* ------------------------------------------------------------- helpers */

static PyObject *
sim_error(void)
{
    /* repro.sim.engine.SimulationError, fetched lazily so the compiled
     * and pure kernels raise the exact same exception class. */
    static PyObject *exc = NULL;
    if (exc == NULL) {
        PyObject *mod = PyImport_ImportModule("repro.sim.engine");
        if (mod != NULL) {
            exc = PyObject_GetAttrString(mod, "SimulationError");
            Py_DECREF(mod);
        }
        if (exc == NULL) {
            PyErr_Clear();
            exc = PyExc_RuntimeError;
            Py_INCREF(exc);
        }
    }
    return exc;
}

static int
as_i64(PyObject *obj, int64_t *out)
{
    PyObject *idx = PyNumber_Index(obj);
    if (idx == NULL)
        return -1;
    long long v = PyLong_AsLongLong(idx);
    Py_DECREF(idx);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = (int64_t)v;
    return 0;
}

static int
tracer_is_enabled(PyObject *tracer)
{
    /* Truthiness of tracer.enabled; a missing attribute counts as off. */
    if (tracer == NULL || tracer == Py_None)
        return 0;
    PyObject *en = PyObject_GetAttr(tracer, s_enabled);
    if (en == NULL) {
        PyErr_Clear();
        return 0;
    }
    int truthy = PyObject_IsTrue(en);
    Py_DECREF(en);
    return truthy > 0;
}

static int
reject_enabled_tracer(PyObject *tracer, const char *what)
{
    if (tracer_is_enabled(tracer)) {
        PyErr_Format(PyExc_ValueError,
                     "compiled %s does not support an enabled tracer; "
                     "run with --kernel pure (REPRO_KERNEL=pure) for "
                     "instrumented runs", what);
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------ heap machinery */

static inline int
entry_lt(const HeapEntry *x, const HeapEntry *y)
{
    if (x->when != y->when)
        return x->when < y->when;
    return x->seq < y->seq;
}

static int
entry_live(const HeapEntry *e)
{
    switch (e->kind) {
    case KIND_PY:
        return !((CEvent *)e->a)->cancelled;
    case KIND_TIMER: {
        CTimer *t = (CTimer *)e->a;
        return t->armed && t->gen == e->tag;
    }
    default:
        return 1;
    }
}

static void
entry_release(HeapEntry *e)
{
    Py_XDECREF(e->a);
    Py_XDECREF(e->b);
    e->a = e->b = NULL;
}

static int
heap_reserve(CLoop *self, Py_ssize_t need)
{
    if (need <= self->heap_cap)
        return 0;
    Py_ssize_t cap = self->heap_cap ? self->heap_cap : 64;
    while (cap < need)
        cap *= 2;
    HeapEntry *mem = PyMem_Realloc(self->heap, cap * sizeof(HeapEntry));
    if (mem == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = mem;
    self->heap_cap = cap;
    return 0;
}

/* push an entry; steals the references held in *e */
static int
heap_push(CLoop *self, HeapEntry *e)
{
    if (heap_reserve(self, self->heap_len + 1) < 0) {
        entry_release(e);
        return -1;
    }
    HeapEntry *h = self->heap;
    Py_ssize_t pos = self->heap_len++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_lt(e, &h[parent]))
            break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = *e;
    return 0;
}

/* pop the minimum into *out (caller owns its references) */
static void
heap_pop(CLoop *self, HeapEntry *out)
{
    HeapEntry *h = self->heap;
    *out = h[0];
    Py_ssize_t n = --self->heap_len;
    if (n == 0)
        return;
    HeapEntry last = h[n];
    Py_ssize_t pos = 0;
    Py_ssize_t child;
    while ((child = 2 * pos + 1) < n) {
        if (child + 1 < n && entry_lt(&h[child + 1], &h[child]))
            child += 1;
        if (!entry_lt(&h[child], &last))
            break;
        h[pos] = h[child];
        pos = child;
    }
    h[pos] = last;
}

/* discard a dead head entry, settling the lazy-deletion debt */
static void
heap_pop_dead(CLoop *self)
{
    HeapEntry e;
    heap_pop(self, &e);
    if (e.kind == KIND_PY || e.kind == KIND_TIMER)
        self->cancelled_in_heap -= 1;
    entry_release(&e);
}

static void
loop_compact(CLoop *self)
{
    /* Drop dead entries and re-heapify (Floyd). Live order is fully
     * determined by (when, seq), so this never perturbs firing order. */
    if (self->cancelled_in_heap == 0)
        return;
    HeapEntry *h = self->heap;
    Py_ssize_t n = self->heap_len;
    Py_ssize_t w = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (entry_live(&h[i]))
            h[w++] = h[i];
        else
            entry_release(&h[i]);
    }
    self->heap_len = w;
    for (Py_ssize_t i = w / 2 - 1; i >= 0; i--) {
        HeapEntry item = h[i];
        Py_ssize_t pos = i;
        Py_ssize_t child;
        while ((child = 2 * pos + 1) < w) {
            if (child + 1 < w && entry_lt(&h[child + 1], &h[child]))
                child += 1;
            if (!entry_lt(&h[child], &item))
                break;
            h[pos] = h[child];
            pos = child;
        }
        h[pos] = item;
    }
    self->cancelled_in_heap = 0;
    self->compactions += 1;
}

/* mirror of EventLoop._note_cancelled's compaction policy */
#define COMPACT_MIN 512

static void
loop_note_cancelled(CLoop *self)
{
    self->cancelled_in_heap += 1;
    if (self->cancelled_in_heap >= COMPACT_MIN
        && self->cancelled_in_heap * 2 >= self->heap_len)
        loop_compact(self);
}

/* schedule an internal (no Python Event) entry; consumes one seq.
 * Steals no references: INCREFs a and b itself. */
static int
schedule_internal(CLoop *self, int64_t when, int kind, int64_t tag,
                  PyObject *a, PyObject *b)
{
    HeapEntry e;
    e.when = when;
    e.seq = ++self->seq;
    e.tag = tag;
    e.kind = kind;
    Py_INCREF(a);
    e.a = a;
    Py_XINCREF(b);
    e.b = b;
    return heap_push(self, &e);
}

/* --------------------------------------------------------------- Event */

static void
CEvent_dealloc(CEvent *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->callback);
    Py_XDECREF(self->args);
    Py_XDECREF(self->loop);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
CEvent_traverse(CEvent *self, visitproc visit, void *arg)
{
    Py_VISIT(self->callback);
    Py_VISIT(self->args);
    Py_VISIT(self->loop);
    return 0;
}

static int
CEvent_clear(CEvent *self)
{
    Py_CLEAR(self->callback);
    Py_CLEAR(self->args);
    Py_CLEAR(self->loop);
    return 0;
}

static PyObject *
CEvent_cancel(CEvent *self, PyObject *Py_UNUSED(ignored))
{
    if (!self->cancelled) {
        self->cancelled = 1;
        if (!self->fired && self->loop != NULL)
            loop_note_cancelled(self->loop);
    }
    Py_RETURN_NONE;
}

static PyObject *
CEvent_get_pending(CEvent *self, void *closure)
{
    return PyBool_FromLong(!self->cancelled && !self->fired);
}

static PyObject *
CEvent_repr(CEvent *self)
{
    const char *state = self->cancelled ? "cancelled"
                        : (self->fired ? "fired" : "pending");
    return PyUnicode_FromFormat("<Event t=%lld %R %s>",
                                (long long)self->when, self->callback, state);
}

static PyMethodDef CEvent_methods[] = {
    {"cancel", (PyCFunction)CEvent_cancel, METH_NOARGS,
     "Cancel the event; a no-op if it already fired."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef CEvent_getset[] = {
    {"pending", (getter)CEvent_get_pending, NULL,
     "True while the event is scheduled and not cancelled/fired.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CEvent_members[] = {
    {"when", T_LONGLONG, offsetof(CEvent, when), READONLY,
     "Absolute fire time in ns."},
    {"callback", T_OBJECT_EX, offsetof(CEvent, callback), READONLY, NULL},
    {"cancelled", T_BOOL, offsetof(CEvent, cancelled), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CEvent_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.Event",
    .tp_basicsize = sizeof(CEvent),
    .tp_dealloc = (destructor)CEvent_dealloc,
    .tp_repr = (reprfunc)CEvent_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A scheduled callback (compiled kernel).",
    .tp_traverse = (traverseproc)CEvent_traverse,
    .tp_clear = (inquiry)CEvent_clear,
    .tp_methods = CEvent_methods,
    .tp_getset = CEvent_getset,
    .tp_members = CEvent_members,
    .tp_free = PyObject_GC_Del,
};

/* ------------------------------------------------------------ EventLoop */

static PyObject *
CLoop_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "", kwlist))
        return NULL;
    CLoop *self = (CLoop *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->context = PyDict_New();
    if (self->context == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    Py_INCREF(Py_None);
    self->profiler = Py_None;
    return (PyObject *)self;
}

static void
CLoop_dealloc(CLoop *self)
{
    PyObject_GC_UnTrack(self);
    for (Py_ssize_t i = 0; i < self->heap_len; i++)
        entry_release(&self->heap[i]);
    self->heap_len = 0;
    PyMem_Free(self->heap);
    self->heap = NULL;
    Py_XDECREF(self->context);
    Py_XDECREF(self->profiler);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
CLoop_traverse(CLoop *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->heap_len; i++) {
        Py_VISIT(self->heap[i].a);
        Py_VISIT(self->heap[i].b);
    }
    Py_VISIT(self->context);
    Py_VISIT(self->profiler);
    return 0;
}

static int
CLoop_clear(CLoop *self)
{
    for (Py_ssize_t i = 0; i < self->heap_len; i++)
        entry_release(&self->heap[i]);
    self->heap_len = 0;
    Py_CLEAR(self->context);
    Py_CLEAR(self->profiler);
    return 0;
}

/* shared scheduling core for call_at/call_after */
static PyObject *
loop_schedule_event(CLoop *self, int64_t when, PyObject *callback,
                    PyObject *const *extra, Py_ssize_t nextra)
{
    CEvent *ev = PyObject_GC_New(CEvent, &CEvent_Type);
    if (ev == NULL)
        return NULL;
    ev->when = when;
    Py_INCREF(callback);
    ev->callback = callback;
    ev->args = PyTuple_New(nextra);
    if (ev->args == NULL) {
        ev->loop = NULL;
        Py_DECREF(ev);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < nextra; i++) {
        Py_INCREF(extra[i]);
        PyTuple_SET_ITEM(ev->args, i, extra[i]);
    }
    Py_INCREF(self);
    ev->loop = self;
    ev->cancelled = 0;
    ev->fired = 0;
    ev->seq = ++self->seq;
    PyObject_GC_Track(ev);

    HeapEntry e;
    e.when = when;
    e.seq = ev->seq;
    e.tag = 0;
    e.kind = KIND_PY;
    Py_INCREF(ev);
    e.a = (PyObject *)ev;
    e.b = NULL;
    if (heap_push(self, &e) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return (PyObject *)ev;
}

static PyObject *
CLoop_call_at(CLoop *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "call_at(when, callback, *args) takes at least 2 arguments");
        return NULL;
    }
    int64_t when;
    if (as_i64(args[0], &when) < 0)
        return NULL;
    if (when < self->now) {
        PyErr_Format(sim_error(),
                     "cannot schedule at t=%lld before now=%lld",
                     (long long)when, (long long)self->now);
        return NULL;
    }
    return loop_schedule_event(self, when, args[1], args + 2, nargs - 2);
}

static PyObject *
CLoop_call_after(CLoop *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "call_after(delay, callback, *args) takes at least 2 arguments");
        return NULL;
    }
    int64_t delay;
    if (as_i64(args[0], &delay) < 0)
        return NULL;
    if (delay < 0) {
        PyErr_Format(sim_error(), "negative delay %lld", (long long)delay);
        return NULL;
    }
    return loop_schedule_event(self, self->now + delay, args[1],
                               args + 2, nargs - 2);
}

static PyObject *
CLoop_call_soon(CLoop *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1) {
        PyErr_SetString(PyExc_TypeError,
                        "call_soon(callback, *args) takes at least 1 argument");
        return NULL;
    }
    return loop_schedule_event(self, self->now, args[0], args + 1, nargs - 1);
}

static PyObject *
CLoop_stop(CLoop *self, PyObject *Py_UNUSED(ignored))
{
    self->stopped = 1;
    Py_RETURN_NONE;
}

static PyObject *
CLoop_set_profiler(CLoop *self, PyObject *profiler)
{
    if (profiler != Py_None) {
        PyErr_SetString(sim_error(),
                        "the compiled kernel does not support the "
                        "SimProfiler; rerun with --kernel pure "
                        "(REPRO_KERNEL=pure)");
        return NULL;
    }
    Py_RETURN_NONE;
}

/* forward declarations of the internal dispatchers (defined with their
 * component types below) */
static int core_complete(CCore *core, CWorkItem *item);
static int link_tx_done(CLink *link, PyObject *packet);
static int queue_tx_done(CQueue *q);

static PyObject *
CLoop_run(CLoop *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until = Py_None, *max_events = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO", kwlist,
                                     &until, &max_events))
        return NULL;
    int64_t horizon = 0, limit = 0;
    int has_h = 0, has_l = 0;
    if (until != Py_None) {
        if (as_i64(until, &horizon) < 0)
            return NULL;
        has_h = 1;
    }
    if (max_events != Py_None) {
        if (as_i64(max_events, &limit) < 0)
            return NULL;
        has_l = 1;
    }
    if (self->running) {
        PyErr_SetString(sim_error(), "loop is already running");
        return NULL;
    }
    self->running = 1;
    self->stopped = 0;
    int64_t processed = 0;
    int failed = 0;

    while (!self->stopped) {
        if (self->heap_len == 0)
            break;
        HeapEntry *head = &self->heap[0];
        if (has_h && head->when > horizon)
            break;
        if (!entry_live(head)) {
            heap_pop_dead(self);
            continue;
        }
        HeapEntry e;
        heap_pop(self, &e);
        self->now = e.when;
        int rc = 0;
        switch (e.kind) {
        case KIND_PY: {
            CEvent *ev = (CEvent *)e.a;
            ev->fired = 1;
            PyObject *res = PyObject_Call(ev->callback, ev->args, NULL);
            if (res == NULL)
                rc = -1;
            else
                Py_DECREF(res);
            break;
        }
        case KIND_CPU:
            rc = core_complete((CCore *)e.a, (CWorkItem *)e.b);
            break;
        case KIND_LINK:
            rc = link_tx_done((CLink *)e.a, e.b);
            break;
        case KIND_QTX:
            rc = queue_tx_done((CQueue *)e.a);
            break;
        case KIND_TIMER: {
            CTimer *t = (CTimer *)e.a;
            t->armed = 0;
            t->fire_count += 1;
            PyObject *res = PyObject_CallNoArgs(t->callback);
            if (res == NULL)
                rc = -1;
            else
                Py_DECREF(res);
            break;
        }
        case KIND_CALL1: {
            PyObject *res = PyObject_CallOneArg(e.a, e.b);
            if (res == NULL)
                rc = -1;
            else
                Py_DECREF(res);
            break;
        }
        }
        entry_release(&e);
        if (rc < 0) {
            failed = 1;
            break;
        }
        processed += 1;
        if (has_l && processed >= limit) {
            PyErr_Format(sim_error(),
                         "exceeded max_events=%lld (runaway simulation?)",
                         (long long)limit);
            failed = 1;
            break;
        }
    }
    if (!failed && has_h && self->now < horizon)
        self->now = horizon;
    self->events_processed += processed;
    self->running = 0;
    if (failed)
        return NULL;
    return PyLong_FromLongLong(self->now);
}

static PyObject *
CLoop_run_until_idle(CLoop *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *args = PyTuple_New(0);
    if (args == NULL)
        return NULL;
    PyObject *res = CLoop_run(self, args, NULL);
    Py_DECREF(args);
    return res;
}

static PyObject *
CLoop_peek_next_time(CLoop *self, PyObject *Py_UNUSED(ignored))
{
    while (self->heap_len && !entry_live(&self->heap[0]))
        heap_pop_dead(self);
    if (self->heap_len == 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->heap[0].when);
}

static PyObject *
CLoop_pending_count(CLoop *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(
        (long long)self->heap_len - self->cancelled_in_heap);
}

static PyObject *
CLoop_compact_py(CLoop *self, PyObject *Py_UNUSED(ignored))
{
    loop_compact(self);
    Py_RETURN_NONE;
}

static PyObject *
CLoop_get_now(CLoop *self, void *closure)
{
    return PyLong_FromLongLong(self->now);
}

static PyObject *
CLoop_get_events_processed(CLoop *self, void *closure)
{
    return PyLong_FromLongLong(self->events_processed);
}

static PyMethodDef CLoop_methods[] = {
    {"call_at", (PyCFunction)(void (*)(void))CLoop_call_at, METH_FASTCALL,
     "Schedule callback(*args) at absolute time `when` (ns)."},
    {"call_after", (PyCFunction)(void (*)(void))CLoop_call_after, METH_FASTCALL,
     "Schedule callback(*args) after `delay` ns (must be >= 0)."},
    {"call_soon", (PyCFunction)(void (*)(void))CLoop_call_soon, METH_FASTCALL,
     "Schedule callback(*args) at the current instant."},
    {"run", (PyCFunction)(void (*)(void))CLoop_run,
     METH_VARARGS | METH_KEYWORDS, "Run the simulation."},
    {"run_until_idle", (PyCFunction)CLoop_run_until_idle, METH_NOARGS,
     "Run until no events remain; returns the final time."},
    {"stop", (PyCFunction)CLoop_stop, METH_NOARGS,
     "Request the running loop to stop after the current callback."},
    {"set_profiler", (PyCFunction)CLoop_set_profiler, METH_O,
     "Unsupported on the compiled kernel (raises; use --kernel pure)."},
    {"peek_next_time", (PyCFunction)CLoop_peek_next_time, METH_NOARGS,
     "Time of the next pending event, or None."},
    {"pending_count", (PyCFunction)CLoop_pending_count, METH_NOARGS,
     "Number of scheduled, non-cancelled events (O(1))."},
    {"compact", (PyCFunction)CLoop_compact_py, METH_NOARGS,
     "Drop cancelled entries from the heap and re-heapify."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef CLoop_getset[] = {
    {"now", (getter)CLoop_get_now, NULL,
     "Current simulated time in integer nanoseconds.", NULL},
    {"_now", (getter)CLoop_get_now, NULL,
     "Alias of `now` for callers that read the pure loop's clock slot "
     "directly (a per-event hot-path optimization).", NULL},
    {"events_processed", (getter)CLoop_get_events_processed, NULL,
     "Count of callbacks that have fired.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CLoop_members[] = {
    {"context", T_OBJECT_EX, offsetof(CLoop, context), READONLY,
     "Arbitrary per-simulation scratch space."},
    {"compactions", T_LONGLONG, offsetof(CLoop, compactions), READONLY,
     "Heap rebuilds triggered by cancellation debt."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CLoop_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.EventLoop",
    .tp_basicsize = sizeof(CLoop),
    .tp_dealloc = (destructor)CLoop_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The simulation clock and scheduler (compiled kernel).",
    .tp_traverse = (traverseproc)CLoop_traverse,
    .tp_clear = (inquiry)CLoop_clear,
    .tp_methods = CLoop_methods,
    .tp_getset = CLoop_getset,
    .tp_members = CLoop_members,
    .tp_new = CLoop_new,
    .tp_free = PyObject_GC_Del,
};
/* ------------------------------------------------------- ring buffers */

/* A tiny grow-only circular buffer of owned PyObject* — the C stand-in
 * for collections.deque in CpuCore/Link/DropTailQueue. */

static int
ring_push(PyObject ***bufp, Py_ssize_t *headp, Py_ssize_t *lenp,
          Py_ssize_t *capp, PyObject *item, int front)
{
    PyObject **buf = *bufp;
    Py_ssize_t cap = *capp, len = *lenp;
    if (len == cap) {
        Py_ssize_t ncap = cap ? cap * 2 : 8;
        PyObject **nbuf = PyMem_Malloc(ncap * sizeof(PyObject *));
        if (nbuf == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < len; i++)
            nbuf[i] = buf[(*headp + i) % (cap ? cap : 1)];
        PyMem_Free(buf);
        *bufp = buf = nbuf;
        *capp = cap = ncap;
        *headp = 0;
    }
    if (front) {
        *headp = (*headp - 1 + cap) % cap;
        buf[*headp] = item;
    } else {
        buf[(*headp + len) % cap] = item;
    }
    *lenp = len + 1;
    Py_INCREF(item);
    return 0;
}

/* pop-left; transfers ownership to the caller (never called empty) */
static PyObject *
ring_pop(PyObject **buf, Py_ssize_t *headp, Py_ssize_t *lenp, Py_ssize_t cap)
{
    PyObject *item = buf[*headp];
    *headp = (*headp + 1) % cap;
    *lenp -= 1;
    return item;
}

static void
ring_dealloc(PyObject **buf, Py_ssize_t head, Py_ssize_t len, Py_ssize_t cap)
{
    for (Py_ssize_t i = 0; i < len; i++)
        Py_DECREF(buf[(head + i) % cap]);
    PyMem_Free(buf);
}

#define RING_TRAVERSE(buf, head, len, cap)                                \
    do {                                                                  \
        for (Py_ssize_t _i = 0; _i < (len); _i++)                         \
            Py_VISIT((buf)[((head) + _i) % (cap)]);                       \
    } while (0)

/* tolerant int coercion used by Timer: mirrors pure int(x) for floats */
static int
as_i64_trunc(PyObject *obj, int64_t *out)
{
    if (PyFloat_Check(obj)) {
        *out = (int64_t)PyFloat_AS_DOUBLE(obj);
        return 0;
    }
    return as_i64(obj, out);
}

/* ------------------------------------------------------------ WorkItem */

static int
workitem_setup(CWorkItem *self, int64_t cycles, PyObject *callback,
               PyObject *name, int priority)
{
    if (cycles < 0) {
        PyErr_SetString(PyExc_ValueError, "work cycles must be >= 0");
        return -1;
    }
    if (priority != 0 && priority != 1) {
        PyErr_SetString(PyExc_ValueError,
                        "priority must be 0 (high) or 1 (normal)");
        return -1;
    }
    self->cycles = cycles;
    Py_INCREF(callback);
    self->callback = callback;
    Py_INCREF(name);
    self->name = name;
    self->priority = priority;
    self->has_submitted = 0;
    self->has_started = 0;
    return 0;
}

static PyObject *
CWorkItem_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"cycles", "callback", "name", "priority", NULL};
    PyObject *cycles_obj, *callback, *name = NULL;
    int priority = 1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|Oi:WorkItem", kwlist,
                                     &cycles_obj, &callback, &name, &priority))
        return NULL;
    int64_t cycles;
    if (as_i64_trunc(cycles_obj, &cycles) < 0)
        return NULL;
    CWorkItem *self = (CWorkItem *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    PyObject *nm = name ? name : PyUnicode_FromString("work");
    if (nm == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    if (workitem_setup(self, cycles, callback, nm, priority) < 0) {
        if (!name)
            Py_DECREF(nm);
        Py_DECREF(self);
        return NULL;
    }
    if (!name)
        Py_DECREF(nm);  /* workitem_setup took its own reference */
    return (PyObject *)self;
}

static void
CWorkItem_dealloc(CWorkItem *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->callback);
    Py_XDECREF(self->name);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
CWorkItem_traverse(CWorkItem *self, visitproc visit, void *arg)
{
    Py_VISIT(self->callback);
    Py_VISIT(self->name);
    return 0;
}

static int
CWorkItem_clear(CWorkItem *self)
{
    Py_CLEAR(self->callback);
    Py_CLEAR(self->name);
    return 0;
}

static PyObject *
CWorkItem_get_submitted_at(CWorkItem *self, void *closure)
{
    if (!self->has_submitted)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->submitted_at);
}

static PyObject *
CWorkItem_get_started_at(CWorkItem *self, void *closure)
{
    if (!self->has_started)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->started_at);
}

static PyGetSetDef CWorkItem_getset[] = {
    {"submitted_at", (getter)CWorkItem_get_submitted_at, NULL,
     "Time the item was queued, or None.", NULL},
    {"started_at", (getter)CWorkItem_get_started_at, NULL,
     "Time the item started executing, or None.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CWorkItem_members[] = {
    {"cycles", T_LONGLONG, offsetof(CWorkItem, cycles), READONLY,
     "Cycle cost of the item."},
    {"callback", T_OBJECT_EX, offsetof(CWorkItem, callback), READONLY, NULL},
    {"name", T_OBJECT, offsetof(CWorkItem, name), 0, NULL},
    {"priority", T_INT, offsetof(CWorkItem, priority), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CWorkItem_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.WorkItem",
    .tp_basicsize = sizeof(CWorkItem),
    .tp_dealloc = (destructor)CWorkItem_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A unit of stack work to execute on a core (compiled kernel).",
    .tp_traverse = (traverseproc)CWorkItem_traverse,
    .tp_clear = (inquiry)CWorkItem_clear,
    .tp_getset = CWorkItem_getset,
    .tp_members = CWorkItem_members,
    .tp_new = CWorkItem_new,
    .tp_free = PyObject_GC_Del,
};

/* ------------------------------------------------------------- CpuCore */

static int
core_start_next(CCore *self)
{
    PyObject *item_obj;
    if (self->hq_len)
        item_obj = ring_pop(self->hq, &self->hq_head, &self->hq_len,
                            self->hq_cap);
    else if (self->q_len)
        item_obj = ring_pop(self->q, &self->q_head, &self->q_len,
                            self->q_cap);
    else
        return 0;
    CWorkItem *item = (CWorkItem *)item_obj;
    CLoop *loop = self->loop;
    int64_t now = loop->now;
    self->current = item_obj;  /* takes the popped reference */
    item->started_at = now;
    item->has_started = 1;
    self->busy_since = now;
    self->has_busy_since = 1;
    /* pure: duration = int(round(item.cycles * SEC / self._freq_hz)) */
    int64_t duration = (int64_t)nearbyint(
        (double)item->cycles * (double)NS_PER_SEC / self->freq_hz);
    return schedule_internal(loop, now + duration, KIND_CPU, 0,
                             (PyObject *)self, item_obj);
}

/* KIND_CPU dispatch: the heap entry owns `item` while this runs */
static int
core_complete(CCore *self, CWorkItem *item)
{
    if (self->has_busy_since) {
        self->busy_ns_total += self->loop->now - self->busy_since;
        self->has_busy_since = 0;
    }
    Py_CLEAR(self->current);
    self->items_executed += 1;
    self->cycles_executed += item->cycles;
    /* Run the callback *before* starting the next item (pure semantics:
     * newly submitted work lands behind already-queued items). */
    PyObject *res = PyObject_CallNoArgs(item->callback);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    if (self->current == NULL)
        return core_start_next(self);
    return 0;
}

static int
core_submit(CCore *self, CWorkItem *item, int continuation)
{
    item->submitted_at = self->loop->now;
    item->has_submitted = 1;
    int rc;
    if (item->priority == 0)
        rc = ring_push(&self->hq, &self->hq_head, &self->hq_len,
                       &self->hq_cap, (PyObject *)item, continuation);
    else
        rc = ring_push(&self->q, &self->q_head, &self->q_len,
                       &self->q_cap, (PyObject *)item, continuation);
    if (rc < 0)
        return -1;
    Py_ssize_t depth = self->q_len + self->hq_len;
    if (depth > self->max_queue_depth)
        self->max_queue_depth = depth;
    if (self->current == NULL)
        return core_start_next(self);
    return 0;
}

static PyObject *
CCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"loop", "freq_hz", "name", "tracer", NULL};
    CLoop *loop;
    double freq_hz;
    PyObject *name = NULL, *tracer = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!d|OO:CpuCore", kwlist,
                                     &CLoop_Type, &loop, &freq_hz,
                                     &name, &tracer))
        return NULL;
    if (freq_hz <= 0) {
        PyErr_SetString(PyExc_ValueError, "core frequency must be positive");
        return NULL;
    }
    if (reject_enabled_tracer(tracer, "CpuCore") < 0)
        return NULL;
    CCore *self = (CCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    Py_INCREF(loop);
    self->loop = loop;
    self->freq_hz = freq_hz;
    if (name != NULL) {
        Py_INCREF(name);
        self->name = name;
    } else {
        self->name = PyUnicode_FromString("cpu0");
        if (self->name == NULL) {
            Py_DECREF(self);
            return NULL;
        }
    }
    return (PyObject *)self;
}

static void
CCore_dealloc(CCore *self)
{
    PyObject_GC_UnTrack(self);
    ring_dealloc(self->q, self->q_head, self->q_len, self->q_cap);
    ring_dealloc(self->hq, self->hq_head, self->hq_len, self->hq_cap);
    self->q = self->hq = NULL;
    self->q_len = self->hq_len = 0;
    Py_XDECREF(self->current);
    Py_XDECREF(self->loop);
    Py_XDECREF(self->name);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
CCore_traverse(CCore *self, visitproc visit, void *arg)
{
    RING_TRAVERSE(self->q, self->q_head, self->q_len, self->q_cap);
    RING_TRAVERSE(self->hq, self->hq_head, self->hq_len, self->hq_cap);
    Py_VISIT(self->current);
    Py_VISIT(self->loop);
    Py_VISIT(self->name);
    return 0;
}

static int
CCore_clear(CCore *self)
{
    ring_dealloc(self->q, self->q_head, self->q_len, self->q_cap);
    ring_dealloc(self->hq, self->hq_head, self->hq_len, self->hq_cap);
    self->q = self->hq = NULL;
    self->q_head = self->hq_head = self->q_len = self->hq_len = 0;
    self->q_cap = self->hq_cap = 0;
    Py_CLEAR(self->current);
    Py_CLEAR(self->loop);
    Py_CLEAR(self->name);
    return 0;
}

static PyObject *
CCore_submit(CCore *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"item", "continuation", NULL};
    PyObject *item;
    int continuation = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!|p:submit", kwlist,
                                     &CWorkItem_Type, &item, &continuation))
        return NULL;
    if (core_submit(self, (CWorkItem *)item, continuation) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
CCore_submit_work(CCore *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"cycles", "callback", "name", "priority",
                             "continuation", NULL};
    PyObject *cycles_obj, *callback, *name = NULL;
    int priority = 1, continuation = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|Oip:submit_work",
                                     kwlist, &cycles_obj, &callback, &name,
                                     &priority, &continuation))
        return NULL;
    int64_t cycles;
    if (as_i64_trunc(cycles_obj, &cycles) < 0)
        return NULL;
    CWorkItem *item = PyObject_GC_New(CWorkItem, &CWorkItem_Type);
    if (item == NULL)
        return NULL;
    item->callback = NULL;
    item->name = NULL;
    PyObject *nm = name ? name : PyUnicode_FromString("work");
    if (nm == NULL) {
        Py_DECREF(item);
        return NULL;
    }
    int rc = workitem_setup(item, cycles, callback, nm, priority);
    if (!name)
        Py_DECREF(nm);
    if (rc < 0) {
        Py_DECREF(item);
        return NULL;
    }
    PyObject_GC_Track(item);
    if (core_submit(self, item, continuation) < 0) {
        Py_DECREF(item);
        return NULL;
    }
    return (PyObject *)item;
}

static PyObject *
CCore_set_frequency(CCore *self, PyObject *arg)
{
    double freq_hz = PyFloat_AsDouble(arg);
    if (freq_hz == -1.0 && PyErr_Occurred())
        return NULL;
    if (freq_hz <= 0) {
        PyErr_SetString(PyExc_ValueError, "core frequency must be positive");
        return NULL;
    }
    self->freq_hz = freq_hz;
    Py_RETURN_NONE;
}

static PyObject *
CCore_busy_ns_up_to_now(CCore *self, PyObject *Py_UNUSED(ignored))
{
    int64_t total = self->busy_ns_total;
    if (self->has_busy_since)
        total += self->loop->now - self->busy_since;
    return PyLong_FromLongLong(total);
}

static PyObject *
CCore_get_freq_hz(CCore *self, void *closure)
{
    return PyFloat_FromDouble(self->freq_hz);
}

static PyObject *
CCore_get_busy(CCore *self, void *closure)
{
    return PyBool_FromLong(self->current != NULL);
}

static PyObject *
CCore_get_queue_depth(CCore *self, void *closure)
{
    return PyLong_FromSsize_t(self->q_len + self->hq_len);
}

static PyMethodDef CCore_methods[] = {
    {"submit", (PyCFunction)(void (*)(void))CCore_submit,
     METH_VARARGS | METH_KEYWORDS,
     "Enqueue a WorkItem; it runs when the core reaches it."},
    {"submit_work", (PyCFunction)(void (*)(void))CCore_submit_work,
     METH_VARARGS | METH_KEYWORDS,
     "Build and submit a WorkItem without a Python-side allocation."},
    {"set_frequency", (PyCFunction)CCore_set_frequency, METH_O,
     "Change the clock; affects items started after this call."},
    {"busy_ns_up_to_now", (PyCFunction)CCore_busy_ns_up_to_now, METH_NOARGS,
     "Total busy nanoseconds including the in-flight item so far."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef CCore_getset[] = {
    {"freq_hz", (getter)CCore_get_freq_hz, NULL,
     "Current clock frequency in Hz.", NULL},
    {"busy", (getter)CCore_get_busy, NULL,
     "True while an item is executing.", NULL},
    {"queue_depth", (getter)CCore_get_queue_depth, NULL,
     "Items waiting (not counting the one executing).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CCore_members[] = {
    {"name", T_OBJECT, offsetof(CCore, name), 0, NULL},
    {"busy_ns_total", T_LONGLONG, offsetof(CCore, busy_ns_total), READONLY,
     NULL},
    {"items_executed", T_LONGLONG, offsetof(CCore, items_executed), READONLY,
     NULL},
    {"cycles_executed", T_LONGLONG, offsetof(CCore, cycles_executed),
     READONLY, NULL},
    {"max_queue_depth", T_LONGLONG, offsetof(CCore, max_queue_depth),
     READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.CpuCore",
    .tp_basicsize = sizeof(CCore),
    .tp_dealloc = (destructor)CCore_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One core: frequency, FIFO run queues, busy accounting "
              "(compiled kernel).",
    .tp_traverse = (traverseproc)CCore_traverse,
    .tp_clear = (inquiry)CCore_clear,
    .tp_methods = CCore_methods,
    .tp_getset = CCore_getset,
    .tp_members = CCore_members,
    .tp_new = CCore_new,
    .tp_free = PyObject_GC_Del,
};

/* --------------------------------------------------------------- Timer */

static PyObject *
CTimer_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"loop", "callback", "slack_ns", "name", NULL};
    CLoop *loop;
    PyObject *callback, *name = NULL;
    long long slack_ns = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!O|LO:Timer", kwlist,
                                     &CLoop_Type, &loop, &callback,
                                     &slack_ns, &name))
        return NULL;
    CTimer *self = (CTimer *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    Py_INCREF(loop);
    self->loop = loop;
    Py_INCREF(callback);
    self->callback = callback;
    self->slack = slack_ns > 0 ? (int64_t)slack_ns : 0;
    if (name != NULL) {
        Py_INCREF(name);
        self->name = name;
    } else {
        self->name = PyUnicode_FromString("");
        if (self->name == NULL) {
            Py_DECREF(self);
            return NULL;
        }
    }
    return (PyObject *)self;
}

static void
CTimer_dealloc(CTimer *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->loop);
    Py_XDECREF(self->callback);
    Py_XDECREF(self->name);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
CTimer_traverse(CTimer *self, visitproc visit, void *arg)
{
    Py_VISIT(self->loop);
    Py_VISIT(self->callback);
    Py_VISIT(self->name);
    return 0;
}

static int
CTimer_clear(CTimer *self)
{
    Py_CLEAR(self->loop);
    Py_CLEAR(self->callback);
    Py_CLEAR(self->name);
    return 0;
}

static void
timer_cancel_internal(CTimer *self)
{
    if (self->armed) {
        self->armed = 0;
        loop_note_cancelled(self->loop);
    }
}

static int
timer_start_at(CTimer *self, int64_t when_ns)
{
    timer_cancel_internal(self);
    int64_t now = self->loop->now;
    int64_t when = when_ns > now ? when_ns : now;
    if (self->slack) {
        int64_t remainder = when % self->slack;
        if (remainder)
            when += self->slack - remainder;
    }
    self->gen += 1;
    self->armed = 1;
    self->when = when;
    return schedule_internal(self->loop, when, KIND_TIMER, self->gen,
                             (PyObject *)self, NULL);
}

static PyObject *
CTimer_start(CTimer *self, PyObject *arg)
{
    int64_t delay;
    if (as_i64_trunc(arg, &delay) < 0)
        return NULL;
    if (delay < 0)
        delay = 0;
    if (timer_start_at(self, self->loop->now + delay) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
CTimer_start_at(CTimer *self, PyObject *arg)
{
    int64_t when;
    if (as_i64_trunc(arg, &when) < 0)
        return NULL;
    if (timer_start_at(self, when) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
CTimer_cancel(CTimer *self, PyObject *Py_UNUSED(ignored))
{
    timer_cancel_internal(self);
    Py_RETURN_NONE;
}

static PyObject *
CTimer_get_pending(CTimer *self, void *closure)
{
    return PyBool_FromLong(self->armed);
}

static PyObject *
CTimer_get_expires_at(CTimer *self, void *closure)
{
    if (!self->armed)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->when);
}

static PyMethodDef CTimer_methods[] = {
    {"start", (PyCFunction)CTimer_start, METH_O,
     "(Re-)arm the timer delay_ns from now (>= 0)."},
    {"start_at", (PyCFunction)CTimer_start_at, METH_O,
     "(Re-)arm the timer for an absolute time."},
    {"cancel", (PyCFunction)CTimer_cancel, METH_NOARGS,
     "Disarm the timer if pending."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef CTimer_getset[] = {
    {"pending", (getter)CTimer_get_pending, NULL,
     "True if the timer is armed and has not fired.", NULL},
    {"expires_at", (getter)CTimer_get_expires_at, NULL,
     "Absolute expiry time in ns, or None when not armed.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CTimer_members[] = {
    {"name", T_OBJECT, offsetof(CTimer, name), 0, NULL},
    {"fire_count", T_LONGLONG, offsetof(CTimer, fire_count), READONLY,
     "Number of times the timer has fired."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CTimer_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.Timer",
    .tp_basicsize = sizeof(CTimer),
    .tp_dealloc = (destructor)CTimer_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A one-shot, re-armable timer (compiled kernel).",
    .tp_traverse = (traverseproc)CTimer_traverse,
    .tp_clear = (inquiry)CTimer_clear,
    .tp_methods = CTimer_methods,
    .tp_getset = CTimer_getset,
    .tp_members = CTimer_members,
    .tp_new = CTimer_new,
    .tp_free = PyObject_GC_Del,
};

/* ---------------------------------------------------------------- Link */

static int
packet_wire_bytes(PyObject *packet, int64_t *out)
{
    PyObject *v = PyObject_GetAttr(packet, s_wire_bytes);
    if (v == NULL)
        return -1;
    int rc = as_i64(v, out);
    Py_DECREF(v);
    return rc;
}

static int
packet_segments(PyObject *packet, int64_t *out)
{
    PyObject *v = PyObject_GetAttr(packet, s_segments);
    if (v == NULL)
        return -1;
    int rc = as_i64(v, out);
    Py_DECREF(v);
    return rc;
}

/* pure: transmit_time(nbytes, rate) — 0 for rate <= 0 */
static int64_t
transmit_time_c(int64_t nbytes, double rate_bps)
{
    if (rate_bps <= 0)
        return 0;
    return (int64_t)nearbyint(
        (double)nbytes * 8.0 * (double)NS_PER_SEC / rate_bps);
}

/* begin serializing the head packet; *tx_out = -1 when nothing started */
static int
clink_start_next(CLink *self, int64_t *tx_out)
{
    *tx_out = -1;
    if (self->f_len == 0)
        return 0;
    PyObject *packet = ring_pop(self->fifo, &self->f_head, &self->f_len,
                                self->f_cap);
    self->transmitting = 1;
    int64_t wb;
    if (packet_wire_bytes(packet, &wb) < 0) {
        Py_DECREF(packet);
        return -1;
    }
    /* pure: tx_ns = int(round(packet.wire_bytes * 8 * SEC / self.rate_bps)) */
    int64_t tx_ns = (int64_t)nearbyint(
        (double)wb * 8.0 * (double)NS_PER_SEC / self->rate_bps);
    self->busy_ns += tx_ns;
    int rc = schedule_internal(self->loop, self->loop->now + tx_ns,
                               KIND_LINK, 0, (PyObject *)self, packet);
    Py_DECREF(packet);
    if (rc < 0)
        return -1;
    *tx_out = tx_ns;
    return 0;
}

static int
clink_send(CLink *self, PyObject *packet, int64_t *tx_out)
{
    if (ring_push(&self->fifo, &self->f_head, &self->f_len, &self->f_cap,
                  packet, 0) < 0)
        return -1;
    if (!self->transmitting)
        return clink_start_next(self, tx_out);
    *tx_out = -1;
    return 0;
}

/* KIND_LINK dispatch: the heap entry owns `packet` while this runs */
static int
link_tx_done(CLink *self, PyObject *packet)
{
    self->transmitting = 0;
    self->packets_sent += 1;
    int64_t wb;
    if (packet_wire_bytes(packet, &wb) < 0)
        return -1;
    self->bytes_sent += wb;
    PyObject *sink = self->sink;
    if (sink == NULL || sink == Py_None) {
        PyErr_Format(PyExc_RuntimeError, "link %S has no sink connected",
                     self->name);
        return -1;
    }
    int64_t delay = self->prop_delay_ns > 0 ? self->prop_delay_ns : 0;
    if (schedule_internal(self->loop, self->loop->now + delay, KIND_CALL1,
                          0, sink, packet) < 0)
        return -1;
    if (self->f_len) {
        int64_t dummy;
        return clink_start_next(self, &dummy);
    }
    return 0;
}

static PyObject *
CLink_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"loop", "rate_bps", "prop_delay_ns", "name",
                             "tracer", NULL};
    CLoop *loop;
    double rate_bps;
    long long prop_delay_ns = 0;
    PyObject *name = NULL, *tracer = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!d|LOO:Link", kwlist,
                                     &CLoop_Type, &loop, &rate_bps,
                                     &prop_delay_ns, &name, &tracer))
        return NULL;
    if (rate_bps <= 0) {
        PyErr_SetString(PyExc_ValueError, "link rate must be positive");
        return NULL;
    }
    if (reject_enabled_tracer(tracer, "Link") < 0)
        return NULL;
    CLink *self = (CLink *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    Py_INCREF(loop);
    self->loop = loop;
    self->rate_bps = rate_bps;
    self->prop_delay_ns = (int64_t)prop_delay_ns;
    if (name != NULL) {
        Py_INCREF(name);
        self->name = name;
    } else {
        self->name = PyUnicode_FromString("link");
        if (self->name == NULL) {
            Py_DECREF(self);
            return NULL;
        }
    }
    return (PyObject *)self;
}

static void
CLink_dealloc(CLink *self)
{
    PyObject_GC_UnTrack(self);
    ring_dealloc(self->fifo, self->f_head, self->f_len, self->f_cap);
    self->fifo = NULL;
    self->f_len = 0;
    Py_XDECREF(self->loop);
    Py_XDECREF(self->name);
    Py_XDECREF(self->sink);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
CLink_traverse(CLink *self, visitproc visit, void *arg)
{
    RING_TRAVERSE(self->fifo, self->f_head, self->f_len, self->f_cap);
    Py_VISIT(self->loop);
    Py_VISIT(self->name);
    Py_VISIT(self->sink);
    return 0;
}

static int
CLink_clear(CLink *self)
{
    ring_dealloc(self->fifo, self->f_head, self->f_len, self->f_cap);
    self->fifo = NULL;
    self->f_head = self->f_len = self->f_cap = 0;
    Py_CLEAR(self->loop);
    Py_CLEAR(self->name);
    Py_CLEAR(self->sink);
    return 0;
}

static PyObject *
CLink_connect(CLink *self, PyObject *sink)
{
    Py_INCREF(sink);
    Py_XSETREF(self->sink, sink);
    Py_RETURN_NONE;
}

static PyObject *
CLink_send(CLink *self, PyObject *packet)
{
    int64_t tx;
    if (clink_send(self, packet, &tx) < 0)
        return NULL;
    if (tx < 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(tx);
}

static PyObject *
CLink_serialization_ns(CLink *self, PyObject *packet)
{
    int64_t wb;
    if (packet_wire_bytes(packet, &wb) < 0)
        return NULL;
    return PyLong_FromLongLong(transmit_time_c(wb, self->rate_bps));
}

static PyObject *
CLink_get_backlogged(CLink *self, void *closure)
{
    return PyBool_FromLong(self->transmitting || self->f_len > 0);
}

static PyObject *
CLink_get_queue_len(CLink *self, void *closure)
{
    return PyLong_FromSsize_t(self->f_len);
}

static PyObject *
CLink_get_sink(CLink *self, void *closure)
{
    PyObject *sink = self->sink ? self->sink : Py_None;
    Py_INCREF(sink);
    return sink;
}

static int
CLink_set_sink(CLink *self, PyObject *value, void *closure)
{
    if (value == NULL)
        value = Py_None;
    Py_INCREF(value);
    Py_XSETREF(self->sink, value);
    return 0;
}

static PyMethodDef CLink_methods[] = {
    {"connect", (PyCFunction)CLink_connect, METH_O,
     "Set the receiver callback for delivered packets."},
    {"send", (PyCFunction)CLink_send, METH_O,
     "Begin (or queue for) serialization; returns tx ns or None."},
    {"serialization_ns", (PyCFunction)CLink_serialization_ns, METH_O,
     "Time to clock the packet onto the wire at the current rate."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef CLink_getset[] = {
    {"backlogged", (getter)CLink_get_backlogged, NULL,
     "True while the wire is busy or the FIFO is non-empty.", NULL},
    {"queue_len", (getter)CLink_get_queue_len, NULL,
     "Packets waiting for the wire (excludes the one being sent).", NULL},
    {"sink", (getter)CLink_get_sink, (setter)CLink_set_sink,
     "Receiver callback for delivered packets.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CLink_members[] = {
    {"rate_bps", T_DOUBLE, offsetof(CLink, rate_bps), 0,
     "Line rate in bits/s (mutable, e.g. by rate processes)."},
    {"prop_delay_ns", T_LONGLONG, offsetof(CLink, prop_delay_ns), 0, NULL},
    {"name", T_OBJECT, offsetof(CLink, name), 0, NULL},
    {"packets_sent", T_LONGLONG, offsetof(CLink, packets_sent), READONLY,
     NULL},
    {"bytes_sent", T_LONGLONG, offsetof(CLink, bytes_sent), READONLY, NULL},
    {"busy_ns", T_LONGLONG, offsetof(CLink, busy_ns), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CLink_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.Link",
    .tp_basicsize = sizeof(CLink),
    .tp_dealloc = (destructor)CLink_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A unidirectional link with rate, propagation delay, and a "
              "FIFO (compiled kernel).",
    .tp_traverse = (traverseproc)CLink_traverse,
    .tp_clear = (inquiry)CLink_clear,
    .tp_methods = CLink_methods,
    .tp_getset = CLink_getset,
    .tp_members = CLink_members,
    .tp_new = CLink_new,
    .tp_free = PyObject_GC_Del,
};

/* ------------------------------------------------------- DropTailQueue */

static int
link_rate(PyObject *link, double *out)
{
    if (PyObject_TypeCheck(link, &CLink_Type)) {
        *out = ((CLink *)link)->rate_bps;
        return 0;
    }
    PyObject *v = PyObject_GetAttr(link, s_rate_bps);
    if (v == NULL)
        return -1;
    double d = PyFloat_AsDouble(v);
    Py_DECREF(v);
    if (d == -1.0 && PyErr_Occurred())
        return -1;
    *out = d;
    return 0;
}

static int
cqueue_pump(CQueue *self)
{
    if (self->link_busy || self->f_len == 0)
        return 0;
    PyObject *packet = ring_pop(self->fifo, &self->f_head, &self->f_len,
                                self->f_cap);
    int64_t segs;
    if (packet_segments(packet, &segs) < 0) {
        Py_DECREF(packet);
        return -1;
    }
    self->backlog_segments -= segs;
    self->link_busy = 1;
    int64_t tx_ns = -1;
    if (PyObject_TypeCheck(self->link, &CLink_Type)) {
        if (clink_send((CLink *)self->link, packet, &tx_ns) < 0) {
            Py_DECREF(packet);
            return -1;
        }
        if (tx_ns < 0) {
            int64_t wb;
            if (packet_wire_bytes(packet, &wb) < 0) {
                Py_DECREF(packet);
                return -1;
            }
            tx_ns = transmit_time_c(wb, ((CLink *)self->link)->rate_bps);
        }
    } else {
        PyObject *res = PyObject_CallMethodOneArg(self->link, s_send, packet);
        if (res == NULL) {
            Py_DECREF(packet);
            return -1;
        }
        if (res == Py_None) {
            Py_DECREF(res);
            res = PyObject_CallMethodOneArg(self->link, s_serialization_ns,
                                            packet);
            if (res == NULL) {
                Py_DECREF(packet);
                return -1;
            }
        }
        int rc = as_i64(res, &tx_ns);
        Py_DECREF(res);
        if (rc < 0) {
            Py_DECREF(packet);
            return -1;
        }
    }
    Py_DECREF(packet);
    return schedule_internal(self->loop, self->loop->now + tx_ns, KIND_QTX,
                             0, (PyObject *)self, NULL);
}

/* KIND_QTX dispatch */
static int
queue_tx_done(CQueue *self)
{
    self->link_busy = 0;
    return cqueue_pump(self);
}

static int
cqueue_admit(CQueue *self, PyObject *packet)
{
    int64_t segs;
    if (packet_segments(packet, &segs) < 0)
        return -1;
    if (ring_push(&self->fifo, &self->f_head, &self->f_len, &self->f_cap,
                  packet, 0) < 0)
        return -1;
    self->backlog_segments += segs;
    self->enqueued_segments += segs;
    if (self->backlog_segments > self->max_backlog_segments)
        self->max_backlog_segments = self->backlog_segments;
    return cqueue_pump(self);
}

static PyObject *
CQueue_enqueue(CQueue *self, PyObject *packet)
{
    int64_t free_segs = self->capacity_segments - self->backlog_segments;
    int is_ack = 0;
    PyObject *v = PyObject_GetAttr(packet, s_is_ack);
    if (v == NULL)
        return NULL;
    is_ack = PyObject_IsTrue(v);
    Py_DECREF(v);
    if (is_ack < 0)
        return NULL;
    int64_t segs;
    if (packet_segments(packet, &segs) < 0)
        return NULL;
    if (self->input_link != NULL && self->input_link != Py_None && !is_ack) {
        double lr, ir;
        if (link_rate(self->link, &lr) < 0
            || link_rate(self->input_link, &ir) < 0)
            return NULL;
        double ratio = lr / ir;
        if (ratio > 1.0)
            ratio = 1.0;
        /* pure: free += int(packet.segments * ratio) — truncation */
        free_segs += (int64_t)((double)segs * ratio);
    }
    if (segs <= free_segs) {
        if (cqueue_admit(self, packet) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    if (free_segs > 0 && !is_ack) {
        PyObject *free_obj = PyLong_FromLongLong(free_segs);
        if (free_obj == NULL)
            return NULL;
        PyObject *head = PyObject_CallMethodOneArg(packet, s_split_head,
                                                   free_obj);
        Py_DECREF(free_obj);
        if (head == NULL)
            return NULL;
        if (head != Py_None) {
            if (cqueue_admit(self, head) < 0) {
                Py_DECREF(head);
                return NULL;
            }
        }
        Py_DECREF(head);
    }
    /* remainder of `packet` (possibly all of it) is dropped; pure rereads
     * packet.segments after split_head shrank the packet */
    self->dropped_packets += 1;
    int64_t rem_segs;
    if (packet_segments(packet, &rem_segs) < 0)
        return NULL;
    self->dropped_segments += rem_segs;
    if (self->on_drop != NULL && self->on_drop != Py_None) {
        PyObject *segs_obj = PyLong_FromLongLong(rem_segs);
        if (segs_obj == NULL)
            return NULL;
        PyObject *res = PyObject_CallFunctionObjArgs(self->on_drop, packet,
                                                     segs_obj, NULL);
        Py_DECREF(segs_obj);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
    }
    Py_RETURN_NONE;
}

static PyObject *
CQueue_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"loop", "link", "capacity_segments", "name",
                             "input_link", "tracer", NULL};
    CLoop *loop;
    PyObject *link, *name = NULL, *input_link = NULL, *tracer = NULL;
    long long capacity = 1000;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!O|LOOO:DropTailQueue",
                                     kwlist, &CLoop_Type, &loop, &link,
                                     &capacity, &name, &input_link, &tracer))
        return NULL;
    if (capacity < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "queue capacity must be at least one segment");
        return NULL;
    }
    if (reject_enabled_tracer(tracer, "DropTailQueue") < 0)
        return NULL;
    CQueue *self = (CQueue *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    Py_INCREF(loop);
    self->loop = loop;
    Py_INCREF(link);
    self->link = link;
    if (input_link != NULL && input_link != Py_None) {
        Py_INCREF(input_link);
        self->input_link = input_link;
    }
    self->capacity_segments = (int64_t)capacity;
    if (name != NULL) {
        Py_INCREF(name);
        self->name = name;
    } else {
        self->name = PyUnicode_FromString("queue");
        if (self->name == NULL) {
            Py_DECREF(self);
            return NULL;
        }
    }
    return (PyObject *)self;
}

static void
CQueue_dealloc(CQueue *self)
{
    PyObject_GC_UnTrack(self);
    ring_dealloc(self->fifo, self->f_head, self->f_len, self->f_cap);
    self->fifo = NULL;
    self->f_len = 0;
    Py_XDECREF(self->loop);
    Py_XDECREF(self->link);
    Py_XDECREF(self->input_link);
    Py_XDECREF(self->name);
    Py_XDECREF(self->on_drop);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
CQueue_traverse(CQueue *self, visitproc visit, void *arg)
{
    RING_TRAVERSE(self->fifo, self->f_head, self->f_len, self->f_cap);
    Py_VISIT(self->loop);
    Py_VISIT(self->link);
    Py_VISIT(self->input_link);
    Py_VISIT(self->name);
    Py_VISIT(self->on_drop);
    return 0;
}

static int
CQueue_clear(CQueue *self)
{
    ring_dealloc(self->fifo, self->f_head, self->f_len, self->f_cap);
    self->fifo = NULL;
    self->f_head = self->f_len = self->f_cap = 0;
    Py_CLEAR(self->loop);
    Py_CLEAR(self->link);
    Py_CLEAR(self->input_link);
    Py_CLEAR(self->name);
    Py_CLEAR(self->on_drop);
    return 0;
}

static PyObject *
CQueue_sample_backlog(CQueue *self, PyObject *Py_UNUSED(ignored))
{
    self->backlog_sum_segments += (double)self->backlog_segments;
    self->backlog_samples += 1;
    Py_RETURN_NONE;
}

static PyObject *
CQueue_get_backlog_segments(CQueue *self, void *closure)
{
    return PyLong_FromLongLong(self->backlog_segments);
}

static PyObject *
CQueue_get_backlog_packets(CQueue *self, void *closure)
{
    return PyLong_FromSsize_t(self->f_len);
}

static PyObject *
CQueue_get_mean_backlog(CQueue *self, void *closure)
{
    if (self->backlog_samples == 0)
        return PyFloat_FromDouble(0.0);
    return PyFloat_FromDouble(self->backlog_sum_segments
                              / (double)self->backlog_samples);
}

static PyObject *
CQueue_get_input_link(CQueue *self, void *closure)
{
    PyObject *v = self->input_link ? self->input_link : Py_None;
    Py_INCREF(v);
    return v;
}

static PyMethodDef CQueue_methods[] = {
    {"enqueue", (PyCFunction)CQueue_enqueue, METH_O,
     "Admit as much of the packet as fits; drop the rest (tail drop)."},
    {"sample_backlog", (PyCFunction)CQueue_sample_backlog, METH_NOARGS,
     "Record the instantaneous backlog for averaging (metrics hook)."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef CQueue_getset[] = {
    {"backlog_segments", (getter)CQueue_get_backlog_segments, NULL,
     "Segments currently buffered (excluding the one on the wire).", NULL},
    {"backlog_packets", (getter)CQueue_get_backlog_packets, NULL,
     "Super-packets currently buffered.", NULL},
    {"mean_backlog_segments", (getter)CQueue_get_mean_backlog, NULL,
     "Mean of sampled backlogs (0 if never sampled).", NULL},
    {"input_link", (getter)CQueue_get_input_link, NULL,
     "Upstream link feeding this queue, if any.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CQueue_members[] = {
    {"link", T_OBJECT_EX, offsetof(CQueue, link), READONLY, NULL},
    {"capacity_segments", T_LONGLONG, offsetof(CQueue, capacity_segments),
     READONLY, NULL},
    {"name", T_OBJECT, offsetof(CQueue, name), 0, NULL},
    {"on_drop", T_OBJECT, offsetof(CQueue, on_drop), 0,
     "Optional callback invoked when segments are dropped."},
    {"enqueued_segments", T_LONGLONG, offsetof(CQueue, enqueued_segments),
     READONLY, NULL},
    {"dropped_segments", T_LONGLONG, offsetof(CQueue, dropped_segments),
     READONLY, NULL},
    {"dropped_packets", T_LONGLONG, offsetof(CQueue, dropped_packets),
     READONLY, NULL},
    {"max_backlog_segments", T_LONGLONG,
     offsetof(CQueue, max_backlog_segments), READONLY, NULL},
    {"backlog_sum_segments", T_DOUBLE,
     offsetof(CQueue, backlog_sum_segments), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CQueue_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.DropTailQueue",
    .tp_basicsize = sizeof(CQueue),
    .tp_dealloc = (destructor)CQueue_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A bounded FIFO feeding a Link (compiled kernel).",
    .tp_traverse = (traverseproc)CQueue_traverse,
    .tp_clear = (inquiry)CQueue_clear,
    .tp_methods = CQueue_methods,
    .tp_getset = CQueue_getset,
    .tp_members = CQueue_members,
    .tp_new = CQueue_new,
    .tp_free = PyObject_GC_Del,
};

/* ----------------------------------------------------- ACK hot path ---
 *
 * C implementations of the per-ACK TCP bookkeeping: the SACK scoreboard
 * (repro.tcp.scoreboard.Scoreboard) and the delivery-rate estimator
 * (repro.tcp.rate_sample.{TxRecord,RateSample,DeliveryRateEstimator}).
 * Arithmetic is transcribed verbatim from the pure modules — integer
 * nanoseconds throughout, C `/` on non-negative operands for Python
 * floor division, `(overlap + mss - 1) / mss` for `-(-overlap // mss)`
 * — so the equivalence suite's bit-identity contract holds.
 *
 * Beyond the one-to-one method ports there are two *seams* that exist
 * on the pure classes too (added alongside this code):
 *
 *   Scoreboard.process_ack(delivery, ack_seq, sack_blocks, now_ns,
 *                          prior_inflight, min_rtt_expired)
 *       -> (RateSample, newly_acked_bytes)
 *   DeliveryRateEstimator.send_record(now_ns, seq, end_seq, segments,
 *                                     has_inflight, app_limited)
 *       -> TxRecord
 *
 * They fuse the cumulative/SACK walk, the delivered-counter credit, and
 * the rate-sample construction into a single C call, so a compiled run
 * pays one interpreter dispatch per ACK (and per transmit) instead of
 * five plus a snapshot dict and a dataclass construction.
 */

typedef struct {
    PyObject_HEAD
    int64_t seq;
    int64_t end_seq;
    int64_t segments;
    int64_t sent_ns;
    int64_t delivered_at_send;
    int64_t delivered_time_at_send;
    int64_t first_sent_at_send;
    int64_t sacked_segments;
    int64_t last_sent_ns;
    char is_app_limited;
    char retransmitted;
    char sacked;
    char lost;
} CTxRec;

typedef struct {
    PyObject_HEAD
    int64_t delivered_bytes;
    int64_t interval_ns;
    int64_t rtt_ns;
    int64_t delivered_total;
    int64_t prior_delivered;
    int64_t prior_inflight_segments;
    int64_t newly_acked_segments;
    int64_t newly_sacked_segments;
    int64_t newly_lost_segments;
    int64_t ack_time_ns;
    char is_app_limited;
    char min_rtt_expired;
} CRateSample;

typedef struct {
    PyObject_HEAD
    int64_t newly_acked_bytes;
    int64_t newly_acked_segments;
    int64_t newly_sacked_bytes;
    int64_t newly_sacked_segments;
    int64_t newly_lost_segments;
    PyObject *newest;  /* owned CTxRec or NULL (exposed as None) */
} CAckOutcome;

typedef struct {
    PyObject_HEAD
    int64_t mss;
    int64_t reorder_degree;
    int64_t snd_una;
    int64_t highest_sacked;
    int64_t total_retransmitted_segments;
    /* tx-record ring: owned CTxRec refs, oldest first */
    PyObject **rec;
    Py_ssize_t r_head, r_len, r_cap;
    /* derived-counter cache (packets/sacked/lost/retrans), dirty flag */
    int64_t c_packets, c_sacked, c_lost, c_retrans;
    char counters_dirty;
    char have_lost;
} CScoreboard;

typedef struct {
    PyObject_HEAD
    int64_t delivered_bytes;
    int64_t delivered_time_ns;
    int64_t first_sent_ns;
    int64_t app_limited_until;
} CDelivery;

static PyTypeObject CTxRec_Type;
static PyTypeObject CRateSample_Type;
static PyTypeObject CAckOutcome_Type;
static PyTypeObject CScoreboard_Type;
static PyTypeObject CDelivery_Type;

/* TxRecord / RateSample free lists: one record lives per in-flight
 * super-packet and one sample per ACK, so both churn at event rate.
 * Recycling sidesteps the allocator on the two hottest object types. */

#define TXREC_POOL_MAX 512
static CTxRec *txrec_pool[TXREC_POOL_MAX];
static int txrec_pool_len = 0;

#define RS_POOL_MAX 64
static CRateSample *rs_pool[RS_POOL_MAX];
static int rs_pool_len = 0;

static CTxRec *
txrec_alloc(void)
{
    CTxRec *self;
    if (txrec_pool_len > 0) {
        self = txrec_pool[--txrec_pool_len];
        _Py_NewReference((PyObject *)self);
    } else {
        self = PyObject_New(CTxRec, &CTxRec_Type);
        if (self == NULL)
            return NULL;
    }
    return self;
}

static void
CTxRec_dealloc(CTxRec *self)
{
    if (Py_TYPE(self) == &CTxRec_Type && txrec_pool_len < TXREC_POOL_MAX)
        txrec_pool[txrec_pool_len++] = self;
    else
        Py_TYPE(self)->tp_free((PyObject *)self);
}

static CRateSample *
ratesample_alloc(void)
{
    CRateSample *self;
    if (rs_pool_len > 0) {
        self = rs_pool[--rs_pool_len];
        _Py_NewReference((PyObject *)self);
    } else {
        self = PyObject_New(CRateSample, &CRateSample_Type);
        if (self == NULL)
            return NULL;
    }
    /* pure RateSample() defaults: everything 0/False except rtt_ns=-1 */
    self->delivered_bytes = 0;
    self->interval_ns = 0;
    self->rtt_ns = -1;
    self->delivered_total = 0;
    self->prior_delivered = 0;
    self->prior_inflight_segments = 0;
    self->newly_acked_segments = 0;
    self->newly_sacked_segments = 0;
    self->newly_lost_segments = 0;
    self->ack_time_ns = 0;
    self->is_app_limited = 0;
    self->min_rtt_expired = 0;
    return self;
}

static void
CRateSample_dealloc(CRateSample *self)
{
    if (Py_TYPE(self) == &CRateSample_Type && rs_pool_len < RS_POOL_MAX)
        rs_pool[rs_pool_len++] = self;
    else
        Py_TYPE(self)->tp_free((PyObject *)self);
}

/* ------------------------------------------------------------ TxRecord */

static PyObject *
CTxRec_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "seq", "end_seq", "segments", "sent_ns", "delivered_at_send",
        "delivered_time_at_send", "first_sent_at_send", "is_app_limited",
        "retransmitted", "sacked", "lost", "sacked_segments",
        "last_sent_ns", NULL,
    };
    long long seq, end_seq, segments, sent_ns, delivered_at_send,
        delivered_time_at_send, first_sent_at_send;
    long long sacked_segments = 0, last_sent_ns = -1;
    int is_app_limited = 0, retransmitted = 0, sacked = 0, lost = 0;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "LLLLLLL|ppppLL:TxRecord", kwlist,
            &seq, &end_seq, &segments, &sent_ns, &delivered_at_send,
            &delivered_time_at_send, &first_sent_at_send, &is_app_limited,
            &retransmitted, &sacked, &lost, &sacked_segments, &last_sent_ns))
        return NULL;
    CTxRec *self = txrec_alloc();
    if (self == NULL)
        return NULL;
    self->seq = seq;
    self->end_seq = end_seq;
    self->segments = segments;
    self->sent_ns = sent_ns;
    self->delivered_at_send = delivered_at_send;
    self->delivered_time_at_send = delivered_time_at_send;
    self->first_sent_at_send = first_sent_at_send;
    self->is_app_limited = (char)is_app_limited;
    self->retransmitted = (char)retransmitted;
    self->sacked = (char)sacked;
    self->lost = (char)lost;
    self->sacked_segments = sacked_segments;
    /* pure __post_init__: last_sent_ns < 0 means "same as sent_ns" */
    self->last_sent_ns = last_sent_ns < 0 ? sent_ns : last_sent_ns;
    return (PyObject *)self;
}

static PyObject *
CTxRec_get_length(CTxRec *self, void *closure)
{
    return PyLong_FromLongLong(self->end_seq - self->seq);
}

static PyObject *
CTxRec_repr(CTxRec *self)
{
    return PyUnicode_FromFormat(
        "<TxRecord seq=%lld end=%lld segs=%lld%s%s%s>",
        (long long)self->seq, (long long)self->end_seq,
        (long long)self->segments, self->sacked ? " sacked" : "",
        self->lost ? " lost" : "", self->retransmitted ? " retx" : "");
}

static PyGetSetDef CTxRec_getset[] = {
    {"length", (getter)CTxRec_get_length, NULL, "Payload bytes covered.",
     NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CTxRec_members[] = {
    {"seq", T_LONGLONG, offsetof(CTxRec, seq), 0, NULL},
    {"end_seq", T_LONGLONG, offsetof(CTxRec, end_seq), 0, NULL},
    {"segments", T_LONGLONG, offsetof(CTxRec, segments), 0, NULL},
    {"sent_ns", T_LONGLONG, offsetof(CTxRec, sent_ns), 0, NULL},
    {"delivered_at_send", T_LONGLONG, offsetof(CTxRec, delivered_at_send),
     0, NULL},
    {"delivered_time_at_send", T_LONGLONG,
     offsetof(CTxRec, delivered_time_at_send), 0, NULL},
    {"first_sent_at_send", T_LONGLONG,
     offsetof(CTxRec, first_sent_at_send), 0, NULL},
    {"is_app_limited", T_BOOL, offsetof(CTxRec, is_app_limited), 0, NULL},
    {"retransmitted", T_BOOL, offsetof(CTxRec, retransmitted), 0, NULL},
    {"sacked", T_BOOL, offsetof(CTxRec, sacked), 0, NULL},
    {"lost", T_BOOL, offsetof(CTxRec, lost), 0, NULL},
    {"sacked_segments", T_LONGLONG, offsetof(CTxRec, sacked_segments), 0,
     NULL},
    {"last_sent_ns", T_LONGLONG, offsetof(CTxRec, last_sent_ns), 0, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CTxRec_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.TxRecord",
    .tp_basicsize = sizeof(CTxRec),
    .tp_dealloc = (destructor)CTxRec_dealloc,
    .tp_repr = (reprfunc)CTxRec_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Per-transmitted-packet bookkeeping (compiled kernel).",
    .tp_getset = CTxRec_getset,
    .tp_members = CTxRec_members,
    .tp_new = CTxRec_new,
};

/* ---------------------------------------------------------- RateSample */

static PyObject *
CRateSample_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "delivered_bytes", "interval_ns", "rtt_ns", "delivered_total",
        "prior_delivered", "prior_inflight_segments",
        "newly_acked_segments", "newly_sacked_segments",
        "newly_lost_segments", "is_app_limited", "ack_time_ns",
        "min_rtt_expired", NULL,
    };
    long long delivered_bytes = 0, interval_ns = 0, rtt_ns = -1,
        delivered_total = 0, prior_delivered = 0,
        prior_inflight_segments = 0, newly_acked_segments = 0,
        newly_sacked_segments = 0, newly_lost_segments = 0, ack_time_ns = 0;
    int is_app_limited = 0, min_rtt_expired = 0;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "|LLLLLLLLLpLp:RateSample", kwlist,
            &delivered_bytes, &interval_ns, &rtt_ns, &delivered_total,
            &prior_delivered, &prior_inflight_segments,
            &newly_acked_segments, &newly_sacked_segments,
            &newly_lost_segments, &is_app_limited, &ack_time_ns,
            &min_rtt_expired))
        return NULL;
    CRateSample *self = ratesample_alloc();
    if (self == NULL)
        return NULL;
    self->delivered_bytes = delivered_bytes;
    self->interval_ns = interval_ns;
    self->rtt_ns = rtt_ns;
    self->delivered_total = delivered_total;
    self->prior_delivered = prior_delivered;
    self->prior_inflight_segments = prior_inflight_segments;
    self->newly_acked_segments = newly_acked_segments;
    self->newly_sacked_segments = newly_sacked_segments;
    self->newly_lost_segments = newly_lost_segments;
    self->ack_time_ns = ack_time_ns;
    self->is_app_limited = (char)is_app_limited;
    self->min_rtt_expired = (char)min_rtt_expired;
    return (PyObject *)self;
}

static PyObject *
CRateSample_get_valid(CRateSample *self, void *closure)
{
    return PyBool_FromLong(self->interval_ns > 0
                           && self->delivered_bytes > 0);
}

static PyObject *
CRateSample_get_delivery_rate_bps(CRateSample *self, void *closure)
{
    if (!(self->interval_ns > 0 && self->delivered_bytes > 0))
        return PyFloat_FromDouble(0.0);
    /* pure: self.delivered_bytes * 8 * 1e9 / self.interval_ns */
    return PyFloat_FromDouble((double)(self->delivered_bytes * 8) * 1e9
                              / (double)self->interval_ns);
}

static PyGetSetDef CRateSample_getset[] = {
    {"valid", (getter)CRateSample_get_valid, NULL,
     "True when the sample can produce a bandwidth estimate.", NULL},
    {"delivery_rate_bps", (getter)CRateSample_get_delivery_rate_bps, NULL,
     "Delivery rate of this sample in bits/s (0 when invalid).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CRateSample_members[] = {
    {"delivered_bytes", T_LONGLONG, offsetof(CRateSample, delivered_bytes),
     0, NULL},
    {"interval_ns", T_LONGLONG, offsetof(CRateSample, interval_ns), 0, NULL},
    {"rtt_ns", T_LONGLONG, offsetof(CRateSample, rtt_ns), 0, NULL},
    {"delivered_total", T_LONGLONG, offsetof(CRateSample, delivered_total),
     0, NULL},
    {"prior_delivered", T_LONGLONG, offsetof(CRateSample, prior_delivered),
     0, NULL},
    {"prior_inflight_segments", T_LONGLONG,
     offsetof(CRateSample, prior_inflight_segments), 0, NULL},
    {"newly_acked_segments", T_LONGLONG,
     offsetof(CRateSample, newly_acked_segments), 0, NULL},
    {"newly_sacked_segments", T_LONGLONG,
     offsetof(CRateSample, newly_sacked_segments), 0, NULL},
    {"newly_lost_segments", T_LONGLONG,
     offsetof(CRateSample, newly_lost_segments), 0, NULL},
    {"is_app_limited", T_BOOL, offsetof(CRateSample, is_app_limited), 0,
     NULL},
    {"ack_time_ns", T_LONGLONG, offsetof(CRateSample, ack_time_ns), 0, NULL},
    {"min_rtt_expired", T_BOOL, offsetof(CRateSample, min_rtt_expired), 0,
     NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CRateSample_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.RateSample",
    .tp_basicsize = sizeof(CRateSample),
    .tp_dealloc = (destructor)CRateSample_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "One per-ACK rate sample handed to the congestion control "
              "(compiled kernel).",
    .tp_getset = CRateSample_getset,
    .tp_members = CRateSample_members,
    .tp_new = CRateSample_new,
};

/* ---------------------------------------------------------- AckOutcome */

static PyObject *
CAckOutcome_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "", kwlist))
        return NULL;
    CAckOutcome *self = (CAckOutcome *)type->tp_alloc(type, 0);
    return (PyObject *)self;
}

static void
CAckOutcome_dealloc(CAckOutcome *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->newest);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
CAckOutcome_traverse(CAckOutcome *self, visitproc visit, void *arg)
{
    Py_VISIT(self->newest);
    return 0;
}

static int
CAckOutcome_clear(CAckOutcome *self)
{
    Py_CLEAR(self->newest);
    return 0;
}

static PyObject *
CAckOutcome_get_delivered_bytes(CAckOutcome *self, void *closure)
{
    return PyLong_FromLongLong(self->newly_acked_bytes
                               + self->newly_sacked_bytes);
}

static PyGetSetDef CAckOutcome_getset[] = {
    {"delivered_bytes", (getter)CAckOutcome_get_delivered_bytes, NULL,
     "Total bytes newly delivered (cumulative + selective).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CAckOutcome_members[] = {
    {"newly_acked_bytes", T_LONGLONG,
     offsetof(CAckOutcome, newly_acked_bytes), 0, NULL},
    {"newly_acked_segments", T_LONGLONG,
     offsetof(CAckOutcome, newly_acked_segments), 0, NULL},
    {"newly_sacked_bytes", T_LONGLONG,
     offsetof(CAckOutcome, newly_sacked_bytes), 0, NULL},
    {"newly_sacked_segments", T_LONGLONG,
     offsetof(CAckOutcome, newly_sacked_segments), 0, NULL},
    {"newly_lost_segments", T_LONGLONG,
     offsetof(CAckOutcome, newly_lost_segments), 0, NULL},
    {"newest_delivered_record", T_OBJECT, offsetof(CAckOutcome, newest), 0,
     "The most recently *sent* record that this ACK delivered."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CAckOutcome_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.AckOutcome",
    .tp_basicsize = sizeof(CAckOutcome),
    .tp_dealloc = (destructor)CAckOutcome_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "What one ACK did to the scoreboard (compiled kernel).",
    .tp_traverse = (traverseproc)CAckOutcome_traverse,
    .tp_clear = (inquiry)CAckOutcome_clear,
    .tp_getset = CAckOutcome_getset,
    .tp_members = CAckOutcome_members,
    .tp_new = CAckOutcome_new,
    .tp_free = PyObject_GC_Del,
};

/* ----------------------------------------------- DeliveryRateEstimator */

static PyObject *
CDelivery_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"loop", "tracer", NULL};
    PyObject *loop = NULL, *tracer = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds,
                                     "|OO:DeliveryRateEstimator", kwlist,
                                     &loop, &tracer))
        return NULL;
    (void)loop;  /* routing key only; the estimator never schedules */
    if (reject_enabled_tracer(tracer, "DeliveryRateEstimator") < 0)
        return NULL;
    CDelivery *self = (CDelivery *)type->tp_alloc(type, 0);
    return (PyObject *)self;
}

/* shared with CScoreboard_process_ack */
static void
delivery_credit(CDelivery *self, int64_t nbytes, int64_t now_ns)
{
    self->delivered_bytes += nbytes;
    self->delivered_time_ns = now_ns;
    if (self->app_limited_until
        && self->delivered_bytes > self->app_limited_until)
        self->app_limited_until = 0;
}

static PyObject *
CDelivery_on_send(CDelivery *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"now_ns", "has_inflight", "app_limited", NULL};
    long long now_ns;
    int has_inflight, app_limited;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Lpp:on_send", kwlist,
                                     &now_ns, &has_inflight, &app_limited))
        return NULL;
    if (!has_inflight) {
        self->first_sent_ns = now_ns;
        self->delivered_time_ns = now_ns;
    }
    if (app_limited)
        self->app_limited_until = self->delivered_bytes + 1;
    return Py_BuildValue(
        "{s:L, s:L, s:L, s:O}",
        "delivered_at_send", (long long)self->delivered_bytes,
        "delivered_time_at_send", (long long)self->delivered_time_ns,
        "first_sent_at_send", (long long)self->first_sent_ns,
        "is_app_limited", self->app_limited_until > 0 ? Py_True : Py_False);
}

static PyObject *
CDelivery_on_delivered(CDelivery *self, PyObject *const *args,
                       Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "on_delivered(nbytes, now_ns) takes 2 arguments");
        return NULL;
    }
    int64_t nbytes, now_ns;
    if (as_i64(args[0], &nbytes) < 0 || as_i64(args[1], &now_ns) < 0)
        return NULL;
    delivery_credit(self, nbytes, now_ns);
    Py_RETURN_NONE;
}

/* pure make_sample transcribed; fills a fresh default CRateSample */
static CRateSample *
delivery_make_sample(CDelivery *self, CTxRec *record, int64_t now_ns)
{
    CRateSample *rs = ratesample_alloc();
    if (rs == NULL)
        return NULL;
    rs->delivered_total = self->delivered_bytes;
    rs->prior_delivered = record->delivered_at_send;
    rs->ack_time_ns = now_ns;
    if (record->retransmitted)
        return rs;  /* invalid: interval_ns stays 0 (Karn's rule) */
    int64_t send_interval = record->sent_ns - record->first_sent_at_send;
    int64_t ack_interval = now_ns - record->delivered_time_at_send;
    rs->interval_ns = ack_interval > send_interval ? ack_interval
                                                   : send_interval;
    rs->delivered_bytes = self->delivered_bytes - record->delivered_at_send;
    rs->rtt_ns = now_ns - record->sent_ns;
    rs->is_app_limited = record->is_app_limited;
    /* mark the flight restart for subsequent sends */
    self->first_sent_ns = record->sent_ns;
    return rs;
}

static PyObject *
CDelivery_make_sample(CDelivery *self, PyObject *const *args,
                      Py_ssize_t nargs)
{
    if (nargs != 2 || !PyObject_TypeCheck(args[0], &CTxRec_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "make_sample(record, now_ns) takes a compiled "
                        "TxRecord and a time");
        return NULL;
    }
    int64_t now_ns;
    if (as_i64(args[1], &now_ns) < 0)
        return NULL;
    return (PyObject *)delivery_make_sample(self, (CTxRec *)args[0], now_ns);
}

static PyObject *
CDelivery_send_record(CDelivery *self, PyObject *const *args,
                      Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "send_record(now_ns, seq, end_seq, segments, "
                        "has_inflight, app_limited) takes 6 arguments");
        return NULL;
    }
    int64_t now_ns, seq, end_seq, segments;
    if (as_i64(args[0], &now_ns) < 0 || as_i64(args[1], &seq) < 0
        || as_i64(args[2], &end_seq) < 0 || as_i64(args[3], &segments) < 0)
        return NULL;
    int has_inflight = PyObject_IsTrue(args[4]);
    if (has_inflight < 0)
        return NULL;
    int app_limited = PyObject_IsTrue(args[5]);
    if (app_limited < 0)
        return NULL;
    /* pure on_send: a send with nothing in flight restarts the flight */
    if (!has_inflight) {
        self->first_sent_ns = now_ns;
        self->delivered_time_ns = now_ns;
    }
    if (app_limited)
        self->app_limited_until = self->delivered_bytes + 1;
    CTxRec *rec = txrec_alloc();
    if (rec == NULL)
        return NULL;
    rec->seq = seq;
    rec->end_seq = end_seq;
    rec->segments = segments;
    rec->sent_ns = now_ns;
    rec->delivered_at_send = self->delivered_bytes;
    rec->delivered_time_at_send = self->delivered_time_ns;
    rec->first_sent_at_send = self->first_sent_ns;
    rec->is_app_limited = self->app_limited_until > 0;
    rec->retransmitted = 0;
    rec->sacked = 0;
    rec->lost = 0;
    rec->sacked_segments = 0;
    rec->last_sent_ns = now_ns;
    return (PyObject *)rec;
}

static PyMethodDef CDelivery_methods[] = {
    {"on_send", (PyCFunction)(void (*)(void))CDelivery_on_send,
     METH_VARARGS | METH_KEYWORDS,
     "Update flight timing on transmit; returns snapshot kwargs."},
    {"on_delivered", (PyCFunction)(void (*)(void))CDelivery_on_delivered,
     METH_FASTCALL, "Credit newly (s)acked bytes."},
    {"make_sample", (PyCFunction)(void (*)(void))CDelivery_make_sample,
     METH_FASTCALL,
     "Build the rate sample for the newest (s)acked record."},
    {"send_record", (PyCFunction)(void (*)(void))CDelivery_send_record,
     METH_FASTCALL,
     "on_send + TxRecord construction fused into one call."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef CDelivery_members[] = {
    {"delivered_bytes", T_LONGLONG, offsetof(CDelivery, delivered_bytes),
     0, "Total bytes delivered (cumulatively acked or sacked)."},
    {"delivered_time_ns", T_LONGLONG,
     offsetof(CDelivery, delivered_time_ns), 0,
     "Time of the most recent delivery event."},
    {"first_sent_ns", T_LONGLONG, offsetof(CDelivery, first_sent_ns), 0,
     "Send time of the packet that started the current flight."},
    {"app_limited_until", T_LONGLONG,
     offsetof(CDelivery, app_limited_until), 0,
     "Samples are app-limited until `delivered` passes this (0 = off)."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CDelivery_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.DeliveryRateEstimator",
    .tp_basicsize = sizeof(CDelivery),
    .tp_dealloc = (destructor)PyObject_Free,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Connection-wide delivered counters + sample generation "
              "(compiled kernel).",
    .tp_methods = CDelivery_methods,
    .tp_members = CDelivery_members,
    .tp_new = CDelivery_new,
};

/* ----------------------------------------------------------- Scoreboard */

/* record at logical index i (oldest first); only valid for i < r_len */
#define SB_REC(self, i) \
    ((CTxRec *)(self)->rec[((self)->r_head + (i)) % (self)->r_cap])

static PyObject *
CScoreboard_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"mss", "reorder_degree", "loop", "tracer",
                             NULL};
    PyObject *mss_obj, *rd_obj = NULL, *loop = NULL, *tracer = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|OOO:Scoreboard", kwlist,
                                     &mss_obj, &rd_obj, &loop, &tracer))
        return NULL;
    (void)loop;  /* routing key only; the scoreboard never schedules */
    int64_t mss, reorder_degree = 3;
    if (as_i64_trunc(mss_obj, &mss) < 0)
        return NULL;
    if (rd_obj != NULL && rd_obj != Py_None
        && as_i64_trunc(rd_obj, &reorder_degree) < 0)
        return NULL;
    if (mss < 1) {
        PyErr_SetString(PyExc_ValueError, "mss must be >= 1");
        return NULL;
    }
    if (reject_enabled_tracer(tracer, "Scoreboard") < 0)
        return NULL;
    CScoreboard *self = (CScoreboard *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->mss = mss;
    self->reorder_degree = reorder_degree;
    self->counters_dirty = 1;
    return (PyObject *)self;
}

static void
CScoreboard_dealloc(CScoreboard *self)
{
    PyObject_GC_UnTrack(self);
    ring_dealloc(self->rec, self->r_head, self->r_len, self->r_cap);
    self->rec = NULL;
    self->r_len = 0;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
CScoreboard_traverse(CScoreboard *self, visitproc visit, void *arg)
{
    RING_TRAVERSE(self->rec, self->r_head, self->r_len, self->r_cap);
    return 0;
}

static int
CScoreboard_clear(CScoreboard *self)
{
    ring_dealloc(self->rec, self->r_head, self->r_len, self->r_cap);
    self->rec = NULL;
    self->r_head = self->r_len = self->r_cap = 0;
    return 0;
}

static void
sb_refresh_counters(CScoreboard *self)
{
    if (!self->counters_dirty)
        return;
    int64_t packets = 0, sacked = 0, lost = 0, retrans = 0;
    for (Py_ssize_t i = 0; i < self->r_len; i++) {
        CTxRec *r = SB_REC(self, i);
        packets += r->segments;
        sacked += r->sacked_segments;
        if (!r->sacked) {
            int64_t remaining = r->segments - r->sacked_segments;
            if (r->lost)
                lost += remaining;
            if (r->retransmitted)
                retrans += remaining;
        }
    }
    self->c_packets = packets;
    self->c_sacked = sacked;
    self->c_lost = lost;
    self->c_retrans = retrans;
    self->counters_dirty = 0;
}

static PyObject *
CScoreboard_get_packets_out(CScoreboard *self, void *closure)
{
    sb_refresh_counters(self);
    return PyLong_FromLongLong(self->c_packets);
}

static PyObject *
CScoreboard_get_sacked_out(CScoreboard *self, void *closure)
{
    sb_refresh_counters(self);
    return PyLong_FromLongLong(self->c_sacked);
}

static PyObject *
CScoreboard_get_lost_out(CScoreboard *self, void *closure)
{
    sb_refresh_counters(self);
    return PyLong_FromLongLong(self->c_lost);
}

static PyObject *
CScoreboard_get_retrans_out(CScoreboard *self, void *closure)
{
    sb_refresh_counters(self);
    return PyLong_FromLongLong(self->c_retrans);
}

static PyObject *
CScoreboard_get_inflight_segments(CScoreboard *self, void *closure)
{
    sb_refresh_counters(self);
    int64_t inflight = self->c_packets - self->c_sacked - self->c_lost
                       + self->c_retrans;
    return PyLong_FromLongLong(inflight > 0 ? inflight : 0);
}

static PyObject *
CScoreboard_get_has_inflight(CScoreboard *self, void *closure)
{
    return PyBool_FromLong(self->r_len > 0);
}

static PyObject *
CScoreboard_get_records(CScoreboard *self, void *closure)
{
    PyObject *list = PyList_New(self->r_len);
    if (list == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->r_len; i++) {
        PyObject *r = (PyObject *)SB_REC(self, i);
        Py_INCREF(r);
        PyList_SET_ITEM(list, i, r);
    }
    PyObject *it = PyObject_GetIter(list);
    Py_DECREF(list);
    return it;
}

static PyObject *
CScoreboard_oldest_unacked_record(CScoreboard *self,
                                  PyObject *Py_UNUSED(ignored))
{
    if (self->r_len == 0)
        Py_RETURN_NONE;
    PyObject *r = (PyObject *)SB_REC(self, 0);
    Py_INCREF(r);
    return r;
}

static PyObject *
CScoreboard_on_transmit(CScoreboard *self, PyObject *record_obj)
{
    if (!PyObject_TypeCheck(record_obj, &CTxRec_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "compiled Scoreboard.on_transmit expects a "
                        "compiled TxRecord (mixed kernels?)");
        return NULL;
    }
    CTxRec *record = (CTxRec *)record_obj;
    self->counters_dirty = 1;
    if (self->r_len
        && record->seq < SB_REC(self, self->r_len - 1)->end_seq) {
        PyErr_SetString(PyExc_ValueError,
                        "out-of-order original transmission");
        return NULL;
    }
    if (ring_push(&self->rec, &self->r_head, &self->r_len, &self->r_cap,
                  record_obj, 0) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
CScoreboard_on_retransmit(CScoreboard *self, PyObject *record_obj)
{
    if (!PyObject_TypeCheck(record_obj, &CTxRec_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "compiled Scoreboard.on_retransmit expects a "
                        "compiled TxRecord");
        return NULL;
    }
    CTxRec *record = (CTxRec *)record_obj;
    self->counters_dirty = 1;
    record->retransmitted = 1;
    self->total_retransmitted_segments
        += record->segments - record->sacked_segments;
    Py_RETURN_NONE;
}

static PyObject *
CScoreboard_mark_all_lost(CScoreboard *self, PyObject *Py_UNUSED(ignored))
{
    self->counters_dirty = 1;
    int64_t newly_lost = 0;
    for (Py_ssize_t i = 0; i < self->r_len; i++) {
        CTxRec *record = SB_REC(self, i);
        if (record->sacked)
            continue;
        if (!record->lost) {
            record->lost = 1;
            newly_lost += record->segments - record->sacked_segments;
        }
        record->retransmitted = 0;
        self->have_lost = 1;
    }
    return PyLong_FromLongLong(newly_lost);
}

static PyObject *
CScoreboard_next_lost_record(CScoreboard *self, PyObject *Py_UNUSED(ignored))
{
    if (!self->have_lost)
        Py_RETURN_NONE;
    for (Py_ssize_t i = 0; i < self->r_len; i++) {
        CTxRec *record = SB_REC(self, i);
        if (record->lost && !record->retransmitted && !record->sacked) {
            Py_INCREF(record);
            return (PyObject *)record;
        }
    }
    /* fruitless scan: eligibility can only reappear via a new lost mark */
    self->have_lost = 0;
    Py_RETURN_NONE;
}

static PyObject *
CScoreboard_clear_loss_marks(CScoreboard *self, PyObject *Py_UNUSED(ignored))
{
    self->counters_dirty = 1;
    self->have_lost = 0;
    for (Py_ssize_t i = 0; i < self->r_len; i++) {
        CTxRec *record = SB_REC(self, i);
        record->lost = 0;
        record->retransmitted = 0;
    }
    Py_RETURN_NONE;
}

/* one ACK's aggregate effect, accumulated without a Python object */
typedef struct {
    int64_t acked_bytes;
    int64_t acked_segs;
    int64_t sacked_bytes;
    int64_t sacked_segs;
    int64_t lost_segs;
    CTxRec *newest;  /* owned or NULL */
} AckAccum;

static inline void
acc_note_delivered(AckAccum *acc, CTxRec *record)
{
    if (acc->newest == NULL || record->sent_ns >= acc->newest->sent_ns) {
        Py_INCREF(record);
        Py_XSETREF(acc->newest, record);
    }
}

/* _apply_cumulative + _apply_sacks + _detect_losses, transcribed */
static int
sb_apply_ack(CScoreboard *self, int64_t ack_seq, PyObject *blocks,
             AckAccum *acc)
{
    self->counters_dirty = 1;

    /* -- cumulative advance -- */
    if (ack_seq > self->snd_una) {
        while (self->r_len) {
            CTxRec *record = SB_REC(self, 0);
            if (record->seq >= ack_seq)
                break;
            if (record->end_seq <= ack_seq) {
                PyObject *popped = ring_pop(self->rec, &self->r_head,
                                            &self->r_len, self->r_cap);
                int64_t unsacked = record->segments
                                   - record->sacked_segments;
                acc->acked_segs += unsacked;
                int64_t acked = (record->end_seq - record->seq)
                                - record->sacked_segments * self->mss;
                if (acked > 0)
                    acc->acked_bytes += acked;
                acc_note_delivered(acc, record);
                Py_DECREF(popped);
            } else {
                /* partial ACK inside a super-packet: shrink the head */
                int64_t acked_bytes = ack_seq - record->seq;
                int64_t acked_segs = acked_bytes / self->mss;
                if (acked_segs <= 0)
                    break;
                int64_t chopped = acked_segs * self->mss;
                record->seq += chopped;
                record->segments -= acked_segs;
                if (record->sacked_segments > record->segments)
                    record->sacked_segments = record->segments;
                acc->acked_segs += acked_segs;
                acc->acked_bytes += chopped;
                acc_note_delivered(acc, record);
                break;
            }
        }
        if (ack_seq > self->snd_una)
            self->snd_una = ack_seq;
    }

    /* -- SACK blocks -- */
    if (blocks != Py_None) {
        PyObject *fast = PySequence_Fast(
            blocks, "sack_blocks must be a sequence of (start, end)");
        if (fast == NULL)
            return -1;
        Py_ssize_t nblocks = PySequence_Fast_GET_SIZE(fast);
        PyObject **items = PySequence_Fast_ITEMS(fast);
        for (Py_ssize_t bi = 0; bi < nblocks; bi++) {
            PyObject *block = items[bi];
            int64_t start, end;
            if (!PyTuple_Check(block) || PyTuple_GET_SIZE(block) != 2) {
                PyErr_SetString(PyExc_TypeError,
                                "each SACK block must be a (start, end) "
                                "tuple");
                Py_DECREF(fast);
                return -1;
            }
            if (as_i64(PyTuple_GET_ITEM(block, 0), &start) < 0
                || as_i64(PyTuple_GET_ITEM(block, 1), &end) < 0) {
                Py_DECREF(fast);
                return -1;
            }
            if (end <= self->snd_una)
                continue;
            if (end > self->highest_sacked)
                self->highest_sacked = end;
            for (Py_ssize_t i = 0; i < self->r_len; i++) {
                CTxRec *record = SB_REC(self, i);
                if (record->seq >= end)
                    break;
                int64_t lo = record->seq > start ? record->seq : start;
                int64_t hi = record->end_seq < end ? record->end_seq : end;
                int64_t overlap = hi - lo;
                if (overlap <= 0)
                    continue;
                /* pure: min(segments, -(-overlap // mss)) */
                int64_t covered = (overlap + self->mss - 1) / self->mss;
                if (covered > record->segments)
                    covered = record->segments;
                int64_t newly = covered - record->sacked_segments;
                if (newly <= 0)
                    continue;
                record->sacked_segments = covered;
                acc->sacked_segs += newly;
                acc->sacked_bytes += newly * self->mss;
                if (record->sacked_segments >= record->segments) {
                    record->sacked = 1;
                    record->lost = 0;
                }
                acc_note_delivered(acc, record);
            }
        }
        Py_DECREF(fast);
    }

    /* -- FACK-style loss detection -- */
    if (self->highest_sacked > self->snd_una) {
        int64_t threshold = self->highest_sacked
                            - self->reorder_degree * self->mss;
        for (Py_ssize_t i = 0; i < self->r_len; i++) {
            CTxRec *record = SB_REC(self, i);
            if (record->seq >= threshold)
                break;
            if (record->sacked || record->lost || record->retransmitted)
                continue;
            if (record->end_seq > threshold)
                continue;
            record->lost = 1;
            self->have_lost = 1;
            acc->lost_segs += record->segments - record->sacked_segments;
        }
    }
    return 0;
}

static PyObject *
CScoreboard_on_ack(CScoreboard *self, PyObject *const *args,
                   Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "on_ack(ack_seq, sack_blocks) takes 2 arguments");
        return NULL;
    }
    int64_t ack_seq;
    if (as_i64(args[0], &ack_seq) < 0)
        return NULL;
    AckAccum acc = {0, 0, 0, 0, 0, NULL};
    if (sb_apply_ack(self, ack_seq, args[1], &acc) < 0) {
        Py_XDECREF(acc.newest);
        return NULL;
    }
    CAckOutcome *out = PyObject_GC_New(CAckOutcome, &CAckOutcome_Type);
    if (out == NULL) {
        Py_XDECREF(acc.newest);
        return NULL;
    }
    out->newly_acked_bytes = acc.acked_bytes;
    out->newly_acked_segments = acc.acked_segs;
    out->newly_sacked_bytes = acc.sacked_bytes;
    out->newly_sacked_segments = acc.sacked_segs;
    out->newly_lost_segments = acc.lost_segs;
    out->newest = (PyObject *)acc.newest;  /* transfer */
    PyObject_GC_Track(out);
    return (PyObject *)out;
}

/* The per-ACK seam: on_ack + delivered-credit + rate-sample construction
 * in one call. Mirrors Scoreboard.process_ack on the pure class. */
static PyObject *
CScoreboard_process_ack(CScoreboard *self, PyObject *const *args,
                        Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "process_ack(delivery, ack_seq, sack_blocks, "
                        "now_ns, prior_inflight, min_rtt_expired) takes "
                        "6 arguments");
        return NULL;
    }
    if (!PyObject_TypeCheck(args[0], &CDelivery_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "compiled Scoreboard.process_ack expects a "
                        "compiled DeliveryRateEstimator (mixed kernels?)");
        return NULL;
    }
    CDelivery *d = (CDelivery *)args[0];
    int64_t ack_seq, now_ns, prior_inflight;
    if (as_i64(args[1], &ack_seq) < 0 || as_i64(args[3], &now_ns) < 0
        || as_i64(args[4], &prior_inflight) < 0)
        return NULL;
    int min_rtt_expired = PyObject_IsTrue(args[5]);
    if (min_rtt_expired < 0)
        return NULL;

    AckAccum acc = {0, 0, 0, 0, 0, NULL};
    if (sb_apply_ack(self, ack_seq, args[2], &acc) < 0) {
        Py_XDECREF(acc.newest);
        return NULL;
    }
    int64_t delivered = acc.acked_bytes + acc.sacked_bytes;
    if (delivered > 0)
        delivery_credit(d, delivered, now_ns);

    CRateSample *rs;
    if (acc.newest != NULL && delivered > 0) {
        rs = delivery_make_sample(d, acc.newest, now_ns);
    } else {
        rs = ratesample_alloc();
        if (rs != NULL) {
            rs->delivered_total = d->delivered_bytes;
            rs->ack_time_ns = now_ns;
        }
    }
    Py_XDECREF(acc.newest);
    if (rs == NULL)
        return NULL;
    rs->prior_inflight_segments = prior_inflight;
    rs->newly_acked_segments = acc.acked_segs;
    rs->newly_sacked_segments = acc.sacked_segs;
    rs->newly_lost_segments = acc.lost_segs;
    rs->min_rtt_expired = (char)min_rtt_expired;

    PyObject *nb = PyLong_FromLongLong(acc.acked_bytes);
    if (nb == NULL) {
        Py_DECREF(rs);
        return NULL;
    }
    PyObject *tup = PyTuple_New(2);
    if (tup == NULL) {
        Py_DECREF(rs);
        Py_DECREF(nb);
        return NULL;
    }
    PyTuple_SET_ITEM(tup, 0, (PyObject *)rs);
    PyTuple_SET_ITEM(tup, 1, nb);
    return tup;
}

static PyMethodDef CScoreboard_methods[] = {
    {"on_transmit", (PyCFunction)CScoreboard_on_transmit, METH_O,
     "Register a freshly sent record (sequences must be in order)."},
    {"on_retransmit", (PyCFunction)CScoreboard_on_retransmit, METH_O,
     "Account a retransmission of a previously lost record."},
    {"on_ack", (PyCFunction)(void (*)(void))CScoreboard_on_ack,
     METH_FASTCALL, "Apply one ACK; returns the AckOutcome delta."},
    {"process_ack", (PyCFunction)(void (*)(void))CScoreboard_process_ack,
     METH_FASTCALL,
     "on_ack + delivered credit + RateSample in one call; returns "
     "(rate_sample, newly_acked_bytes)."},
    {"mark_all_lost", (PyCFunction)CScoreboard_mark_all_lost, METH_NOARGS,
     "RTO: mark every outstanding, un-SACKed segment lost."},
    {"next_lost_record", (PyCFunction)CScoreboard_next_lost_record,
     METH_NOARGS, "First record marked lost and not yet retransmitted."},
    {"clear_loss_marks", (PyCFunction)CScoreboard_clear_loss_marks,
     METH_NOARGS, "Forget loss/retransmission marks (recovery ended)."},
    {"oldest_unacked_record", (PyCFunction)CScoreboard_oldest_unacked_record,
     METH_NOARGS, "The record at snd_una (None when everything is acked)."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef CScoreboard_getset[] = {
    {"packets_out", (getter)CScoreboard_get_packets_out, NULL,
     "Segments sent and not yet cumulatively acked.", NULL},
    {"sacked_out", (getter)CScoreboard_get_sacked_out, NULL,
     "Segments selectively acked.", NULL},
    {"lost_out", (getter)CScoreboard_get_lost_out, NULL,
     "Segments marked lost and not (re)delivered.", NULL},
    {"retrans_out", (getter)CScoreboard_get_retrans_out, NULL,
     "Retransmitted segments still outstanding.", NULL},
    {"inflight_segments", (getter)CScoreboard_get_inflight_segments, NULL,
     "Segments considered in the network (tcp_packets_in_flight).", NULL},
    {"has_inflight", (getter)CScoreboard_get_has_inflight, NULL,
     "True while any record is outstanding.", NULL},
    {"records", (getter)CScoreboard_get_records, NULL,
     "Outstanding records, lowest sequence first (read-only view).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CScoreboard_members[] = {
    {"mss", T_LONGLONG, offsetof(CScoreboard, mss), READONLY, NULL},
    {"reorder_degree", T_LONGLONG, offsetof(CScoreboard, reorder_degree),
     READONLY, NULL},
    {"snd_una", T_LONGLONG, offsetof(CScoreboard, snd_una), 0, NULL},
    {"highest_sacked", T_LONGLONG, offsetof(CScoreboard, highest_sacked),
     0, NULL},
    {"total_retransmitted_segments", T_LONGLONG,
     offsetof(CScoreboard, total_retransmitted_segments), 0, NULL},
    {"_have_lost", T_BOOL, offsetof(CScoreboard, have_lost), 0,
     "next_lost_record() fast-path flag (diagnostic)."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CScoreboard_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.Scoreboard",
    .tp_basicsize = sizeof(CScoreboard),
    .tp_dealloc = (destructor)CScoreboard_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Sender-side SACK scoreboard and loss detection "
              "(compiled kernel).",
    .tp_traverse = (traverseproc)CScoreboard_traverse,
    .tp_clear = (inquiry)CScoreboard_clear,
    .tp_methods = CScoreboard_methods,
    .tp_getset = CScoreboard_getset,
    .tp_members = CScoreboard_members,
    .tp_new = CScoreboard_new,
    .tp_free = PyObject_GC_Del,
};

/* inflight for C callers (the BBR model reads it several times per ACK) */
static int64_t
sb_inflight(CScoreboard *sb)
{
    sb_refresh_counters(sb);
    int64_t v = sb->c_packets - sb->c_sacked - sb->c_lost + sb->c_retrans;
    return v > 0 ? v : 0;
}

/* ------------------------------------------------- RTT filters --------
 *
 * repro.tcp.rtt transcriptions. RFC 6298 smoothing uses Python
 * `int(...)` on the float EWMA terms — C double→int64 casts truncate
 * identically. All other state is integer nanoseconds.
 */

#define NS_MSEC 1000000LL
#define NS_SEC 1000000000LL

typedef struct {
    PyObject_HEAD
    int64_t min_rto_ns;
    int64_t max_rto_ns;
    int64_t srtt_ns;
    int64_t rttvar_ns;
    int64_t latest_rtt_ns;
    int64_t samples;
    char has_srtt;
    char has_latest;
} CRtt;

typedef struct {
    PyObject_HEAD
    int64_t window_ns;
    int64_t min_ns;
    int64_t stamp_ns;
    char has_min;
} CMinRtt;

static PyTypeObject CRtt_Type;
static PyTypeObject CMinRtt_Type;

static void
rtt_update_c(CRtt *self, int64_t rtt_ns)
{
    if (rtt_ns <= 0)
        return;
    self->latest_rtt_ns = rtt_ns;
    self->has_latest = 1;
    self->samples += 1;
    if (!self->has_srtt) {
        self->srtt_ns = rtt_ns;
        self->rttvar_ns = rtt_ns / 2;
        self->has_srtt = 1;
        return;
    }
    int64_t delta = self->srtt_ns - rtt_ns;
    if (delta < 0)
        delta = -delta;
    /* pure: int((1 - BETA) * rttvar + BETA * delta), BETA = 1/4 */
    self->rttvar_ns = (int64_t)((1.0 - 0.25) * (double)self->rttvar_ns
                                + 0.25 * (double)delta);
    /* pure: int((1 - ALPHA) * srtt + ALPHA * rtt), ALPHA = 1/8 */
    self->srtt_ns = (int64_t)((1.0 - 0.125) * (double)self->srtt_ns
                              + 0.125 * (double)rtt_ns);
}

static int64_t
rtt_rto_c(CRtt *self)
{
    if (!self->has_srtt)
        return NS_SEC; /* RFC 6298 initial RTO of 1 s */
    int64_t var = 4 * self->rttvar_ns;
    if (var < NS_MSEC)
        var = NS_MSEC;
    int64_t rto = self->srtt_ns + var;
    if (rto > self->max_rto_ns)
        rto = self->max_rto_ns;
    if (rto < self->min_rto_ns)
        rto = self->min_rto_ns;
    return rto;
}

static PyObject *
CRtt_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"min_rto_ns", "max_rto_ns", "loop", "tracer",
                             NULL};
    PyObject *min_obj = NULL, *max_obj = NULL, *loop = NULL, *tracer = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OOOO:RttEstimator",
                                     kwlist, &min_obj, &max_obj, &loop,
                                     &tracer))
        return NULL;
    (void)loop;
    int64_t min_rto = 200 * NS_MSEC, max_rto = 120 * NS_SEC;
    if (min_obj != NULL && as_i64_trunc(min_obj, &min_rto) < 0)
        return NULL;
    if (max_obj != NULL && as_i64_trunc(max_obj, &max_rto) < 0)
        return NULL;
    if (reject_enabled_tracer(tracer, "RttEstimator") < 0)
        return NULL;
    CRtt *self = (CRtt *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->min_rto_ns = min_rto;
    self->max_rto_ns = max_rto;
    return (PyObject *)self;
}

static PyObject *
CRtt_update(CRtt *self, PyObject *arg)
{
    int64_t rtt_ns;
    if (as_i64(arg, &rtt_ns) < 0)
        return NULL;
    rtt_update_c(self, rtt_ns);
    Py_RETURN_NONE;
}

static PyObject *
CRtt_get_srtt(CRtt *self, void *closure)
{
    if (!self->has_srtt)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->srtt_ns);
}

static PyObject *
CRtt_get_latest(CRtt *self, void *closure)
{
    if (!self->has_latest)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->latest_rtt_ns);
}

static PyObject *
CRtt_get_rto(CRtt *self, void *closure)
{
    return PyLong_FromLongLong(rtt_rto_c(self));
}

static PyMethodDef CRtt_methods[] = {
    {"update", (PyCFunction)CRtt_update, METH_O,
     "Fold one RTT measurement into the estimator."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef CRtt_getset[] = {
    {"srtt_ns", (getter)CRtt_get_srtt, NULL,
     "Smoothed RTT (None before the first sample).", NULL},
    {"latest_rtt_ns", (getter)CRtt_get_latest, NULL,
     "Most recent RTT sample (None before the first).", NULL},
    {"rto_ns", (getter)CRtt_get_rto, NULL,
     "Current retransmission timeout.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CRtt_members[] = {
    {"min_rto_ns", T_LONGLONG, offsetof(CRtt, min_rto_ns), 0, NULL},
    {"max_rto_ns", T_LONGLONG, offsetof(CRtt, max_rto_ns), 0, NULL},
    {"rttvar_ns", T_LONGLONG, offsetof(CRtt, rttvar_ns), 0, NULL},
    {"samples", T_LONGLONG, offsetof(CRtt, samples), 0, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CRtt_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.RttEstimator",
    .tp_basicsize = sizeof(CRtt),
    .tp_dealloc = (destructor)PyObject_Free,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "SRTT / RTTVAR / RTO per RFC 6298 (compiled kernel).",
    .tp_methods = CRtt_methods,
    .tp_getset = CRtt_getset,
    .tp_members = CRtt_members,
    .tp_new = CRtt_new,
};

static int
minrtt_expired_c(CMinRtt *self, int64_t now_ns)
{
    return self->has_min && now_ns - self->stamp_ns > self->window_ns;
}

static int
minrtt_update_c(CMinRtt *self, int64_t rtt_ns, int64_t now_ns)
{
    if (rtt_ns <= 0)
        return 0;
    int expired = self->has_min
                  && now_ns - self->stamp_ns > self->window_ns;
    if (!self->has_min || expired || rtt_ns <= self->min_ns) {
        self->min_ns = rtt_ns;
        self->stamp_ns = now_ns;
        self->has_min = 1;
        return 1;
    }
    return 0;
}

static PyObject *
CMinRtt_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"window_ns", "loop", "tracer", NULL};
    PyObject *win_obj = NULL, *loop = NULL, *tracer = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OOO:MinRttFilter",
                                     kwlist, &win_obj, &loop, &tracer))
        return NULL;
    (void)loop;
    int64_t window_ns = 10 * NS_SEC;
    if (win_obj != NULL && as_i64_trunc(win_obj, &window_ns) < 0)
        return NULL;
    if (reject_enabled_tracer(tracer, "MinRttFilter") < 0)
        return NULL;
    CMinRtt *self = (CMinRtt *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->window_ns = window_ns;
    return (PyObject *)self;
}

static PyObject *
CMinRtt_update(CMinRtt *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "update(rtt_ns, now_ns) takes 2 arguments");
        return NULL;
    }
    int64_t rtt_ns, now_ns;
    if (as_i64(args[0], &rtt_ns) < 0 || as_i64(args[1], &now_ns) < 0)
        return NULL;
    return PyBool_FromLong(minrtt_update_c(self, rtt_ns, now_ns));
}

static PyObject *
CMinRtt_expired(CMinRtt *self, PyObject *arg)
{
    int64_t now_ns;
    if (as_i64(arg, &now_ns) < 0)
        return NULL;
    return PyBool_FromLong(minrtt_expired_c(self, now_ns));
}

static PyObject *
CMinRtt_get_min(CMinRtt *self, void *closure)
{
    if (!self->has_min)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->min_ns);
}

static PyObject *
CMinRtt_get_stamp(CMinRtt *self, void *closure)
{
    return PyLong_FromLongLong(self->stamp_ns);
}

static PyMethodDef CMinRtt_methods[] = {
    {"update", (PyCFunction)(void (*)(void))CMinRtt_update, METH_FASTCALL,
     "Offer a sample; returns True if it became the new minimum."},
    {"expired", (PyCFunction)CMinRtt_expired, METH_O,
     "True when the minimum is older than the window."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef CMinRtt_getset[] = {
    {"min_rtt_ns", (getter)CMinRtt_get_min, NULL,
     "Current filtered minimum (None before any sample).", NULL},
    {"stamp_ns", (getter)CMinRtt_get_stamp, NULL,
     "Time the current minimum was recorded.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CMinRtt_members[] = {
    {"window_ns", T_LONGLONG, offsetof(CMinRtt, window_ns), 0, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CMinRtt_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.MinRttFilter",
    .tp_basicsize = sizeof(CMinRtt),
    .tp_dealloc = (destructor)PyObject_Free,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Windowed minimum-RTT filter (compiled kernel).",
    .tp_methods = CMinRtt_methods,
    .tp_getset = CMinRtt_getset,
    .tp_members = CMinRtt_members,
    .tp_new = CMinRtt_new,
};

/* ------------------------------------------------- BBR model ---------
 *
 * repro.cc.bbr.Bbr's per-ACK model update, transcribed. The model holds
 * direct references to the connection's compiled scoreboard, delivery
 * estimator, min-RTT filter, and loop, so one cong_control() call runs
 * the whole state machine without touching the interpreter except for
 * the two attributes that live on Python objects (conn.cwnd and
 * pacer.rate_bps). Float expressions keep the pure module's evaluation
 * order; the two divisions whose integer numerators can exceed 2^53
 * (long-term bandwidth sampling, initial pacing rate) go through
 * PyNumber_TrueDivide so the correctly-rounded CPython result is
 * reproduced bit-for-bit.
 */

#define BBR_HIGH_GAIN (2885.0 / 1000.0)
#define BBR_DRAIN_GAIN (1000.0 / 2885.0)
#define BBR_CWND_GAIN 2.0
#define BBR_CYCLE_LEN 8
#define BBR_BW_WINDOW_RTTS (BBR_CYCLE_LEN + 2)
#define BBR_MIN_TARGET_CWND 4
#define BBR_PROBE_RTT_DURATION_NS (200 * NS_MSEC)
#define BBR_FULL_BW_THRESHOLD 1.25
#define BBR_FULL_BW_COUNT 3
#define BBR_PACING_MARGIN 0.99
#define BBR_LT_INTERVAL_MIN_RTTS 4
#define BBR_LT_LOSS_THRESH 0.20
#define BBR_LT_BW_RATIO 0.125
#define BBR_LT_BW_DIFF_BPS (4000 * 8)
#define BBR_LT_BW_MAX_RTTS 48

static const double BBR_GAIN_CYCLE[BBR_CYCLE_LEN] = {
    1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
};

enum {
    BBR_STARTUP = 0,
    BBR_DRAIN = 1,
    BBR_PROBE_BW = 2,
    BBR_PROBE_RTT = 3,
};

static PyObject *bbr_mode_strs[4]; /* interned mode names, set in init */

/* kernel minmax.c windowed max (repro.cc.minmax.WindowedMaxFilter) */
typedef struct {
    int64_t t;
    double v;
} MMSample;

typedef struct {
    PyObject_HEAD
    PyObject *conn;        /* owned; cwnd attribute get/set */
    PyObject *pacer;       /* owned; rate_bps attribute reads */
    CScoreboard *sb;       /* owned */
    CDelivery *delivery;   /* owned */
    CMinRtt *minrtt;       /* owned */
    CLoop *loop;           /* owned */
    int64_t mss;
    int64_t initial_cwnd;
    int64_t init_cwnd_bytes;
    int64_t gso_max_bytes;
    int64_t flow_id;
    char enable_lt_bw;
    int mode;
    MMSample mm[3];
    char mm_have;
    int64_t mm_window;
    int64_t rtt_cnt;
    int64_t next_rtt_delivered;
    char round_start;
    double pacing_gain;
    double cwnd_gain;
    double full_bw;
    int64_t full_bw_cnt;
    char full_bw_reached;
    int64_t cycle_idx;
    int64_t cycle_stamp_ns;
    int64_t probe_rtt_done_stamp;
    char has_probe_rtt_done;
    char probe_rtt_round_done;
    int64_t prior_cwnd;
    char packet_conservation;
    double rate_bps;
    char lt_is_sampling;
    int64_t lt_rtt_cnt;
    char lt_use_bw;
    double lt_bw;
    int64_t lt_last_delivered;
    int64_t lt_last_lost;
    int64_t lt_last_stamp_ns;
    int64_t lost_total;
} CBbr;

static PyTypeObject CBbr_Type;

static double
mm_value(CBbr *b)
{
    return b->mm_have ? b->mm[0].v : 0.0;
}

static void
mm_reset(CBbr *b, int64_t t, double v)
{
    b->mm[0].t = b->mm[1].t = b->mm[2].t = t;
    b->mm[0].v = b->mm[1].v = b->mm[2].v = v;
    b->mm_have = 1;
}

static void
mm_update(CBbr *b, int64_t t, double v)
{
    if (!b->mm_have || v >= b->mm[0].v || t - b->mm[2].t > b->mm_window) {
        mm_reset(b, t, v);
        return;
    }
    if (v >= b->mm[1].v) {
        b->mm[2].t = b->mm[1].t = t;
        b->mm[2].v = b->mm[1].v = v;
    } else if (v >= b->mm[2].v) {
        b->mm[2].t = t;
        b->mm[2].v = v;
    }
    /* _subwin_update */
    int64_t dt = t - b->mm[0].t;
    if (dt > b->mm_window) {
        /* best expired: promote and back-fill the tail */
        b->mm[0] = b->mm[1];
        b->mm[1] = b->mm[2];
        b->mm[2].t = t;
        b->mm[2].v = v;
        if (t - b->mm[0].t > b->mm_window) {
            b->mm[0] = b->mm[1];
            b->mm[1] = b->mm[2];
            b->mm[2].t = t;
            b->mm[2].v = v;
        }
    } else if (b->mm[1].t == b->mm[0].t && dt > b->mm_window / 4) {
        b->mm[2].t = b->mm[1].t = t;
        b->mm[2].v = b->mm[1].v = v;
    } else if (b->mm[2].t == b->mm[1].t && dt > b->mm_window / 2) {
        b->mm[2].t = t;
        b->mm[2].v = v;
    }
}

static double
bbr_bw_bps(CBbr *b)
{
    return b->lt_use_bw ? b->lt_bw : mm_value(b);
}

/* conn.cwnd round-trips (the only hot Python attribute) */
static int64_t
bbr_get_cwnd(CBbr *b, int *err)
{
    PyObject *v = PyObject_GetAttr(b->conn, s_cwnd);
    if (v == NULL) {
        *err = 1;
        return 0;
    }
    int64_t cwnd;
    if (as_i64(v, &cwnd) < 0) {
        Py_DECREF(v);
        *err = 1;
        return 0;
    }
    Py_DECREF(v);
    return cwnd;
}

static int
bbr_set_cwnd(CBbr *b, int64_t cwnd)
{
    PyObject *v = PyLong_FromLongLong(cwnd);
    if (v == NULL)
        return -1;
    int r = PyObject_SetAttr(b->conn, s_cwnd, v);
    Py_DECREF(v);
    return r;
}

static int64_t
bbr_min_rtt_or_msec(CBbr *b)
{
    /* pure: conn.min_rtt_ns or MSEC (filter minima are always > 0) */
    return b->minrtt->has_min ? b->minrtt->min_ns : NS_MSEC;
}

static int64_t
bbr_bdp_segments(CBbr *b, double gain)
{
    if (!b->minrtt->has_min)
        return b->initial_cwnd;
    double bw = bbr_bw_bps(b);
    double bdp_bytes = bw / 8.0 * ((double)b->minrtt->min_ns / 1e9);
    int64_t segs = (int64_t)(gain * bdp_bytes / (double)b->mss);
    return segs > BBR_MIN_TARGET_CWND ? segs : BBR_MIN_TARGET_CWND;
}

/* conn.send_quantum_bytes // mss, transcribed (tcp.segmentation) */
static int64_t
bbr_target_cwnd(CBbr *b, double gain, int *err)
{
    int64_t cwnd = bbr_bdp_segments(b, gain);
    PyObject *rate_obj = PyObject_GetAttr(b->pacer, s_rate_bps);
    if (rate_obj == NULL) {
        *err = 1;
        return 0;
    }
    double prate = PyFloat_AsDouble(rate_obj);
    Py_DECREF(rate_obj);
    if (prate == -1.0 && PyErr_Occurred()) {
        *err = 1;
        return 0;
    }
    int64_t quantum;
    if (prate <= 0.0) {
        quantum = b->gso_max_bytes;
    } else {
        /* tso_autosize_bytes(prate, mss, cc.min_tso_segs, gso_max) —
         * min_tso_segs reads the model's *fresh* rate (updated by
         * _set_pacing_rate earlier in this ACK), while the autosize
         * rate is the pacer's value from the *previous* ACK, exactly
         * as the pure property evaluates them. */
        double rate_bytes_per_sec = prate / 8.0;
        int64_t goal = rate_bytes_per_sec < 9.0e18
                           ? (int64_t)rate_bytes_per_sec
                           : INT64_MAX;
        goal >>= 10; /* PACING_SHIFT */
        int64_t floor_segs = b->rate_bps < 1.2e9 ? 2 : 4;
        int64_t segs = goal / b->mss;
        if (segs < floor_segs)
            segs = floor_segs;
        int64_t nbytes = segs * b->mss;
        int64_t max_segs = b->gso_max_bytes / b->mss;
        if (max_segs < 1)
            max_segs = 1;
        int64_t cap = max_segs * b->mss;
        quantum = nbytes < cap ? nbytes : cap;
    }
    int64_t tso_segs = quantum / b->mss;
    if (tso_segs < 1)
        tso_segs = 1;
    cwnd += 3 * tso_segs;
    if (b->mode == BBR_PROBE_BW && b->cycle_idx == 0)
        cwnd += 2;
    return cwnd;
}

static void
bbr_enter_probe_bw(CBbr *b, int64_t now)
{
    b->mode = BBR_PROBE_BW;
    b->cwnd_gain = BBR_CWND_GAIN;
    /* deterministic phase pick, skipping the 0.75 drain phase */
    int64_t idx = (b->flow_id * 5) % (BBR_CYCLE_LEN - 1);
    if (idx >= 1)
        idx += 1;
    b->cycle_idx = idx;
    b->cycle_stamp_ns = now;
    b->pacing_gain = BBR_GAIN_CYCLE[idx];
}

static int
bbr_is_next_cycle_phase(CBbr *b, CRateSample *rs, int64_t now)
{
    int64_t min_rtt = bbr_min_rtt_or_msec(b);
    int is_full_length = now - b->cycle_stamp_ns > min_rtt;
    double gain = b->pacing_gain;
    if (gain == 1.0)
        return is_full_length;
    int64_t inflight = rs->prior_inflight_segments;
    if (gain > 1.0)
        return is_full_length
               && (rs->newly_lost_segments > 0
                   || inflight >= bbr_bdp_segments(b, gain));
    return is_full_length || inflight <= bbr_bdp_segments(b, 1.0);
}

static void
bbr_lt_reset(CBbr *b)
{
    b->lt_is_sampling = 0;
    b->lt_use_bw = 0;
    b->lt_bw = 0.0;
    b->lt_rtt_cnt = 0;
}

static void
bbr_lt_reset_interval(CBbr *b, int64_t now)
{
    b->lt_last_stamp_ns = now;
    b->lt_last_delivered = b->delivery->delivered_bytes;
    b->lt_last_lost = b->lost_total;
    b->lt_rtt_cnt = 0;
}

/* exact int/int -> double division matching CPython int.__truediv__
 * for numerators that may not fit a double exactly */
static int
py_true_divide(int64_t num_a, int64_t num_b, int64_t den, double *out)
{
    PyObject *a = PyLong_FromLongLong(num_a);
    PyObject *bl = PyLong_FromLongLong(num_b);
    PyObject *d = PyLong_FromLongLong(den);
    PyObject *num = NULL, *q = NULL;
    int rc = -1;
    if (a != NULL && bl != NULL && d != NULL
        && (num = PyNumber_Multiply(a, bl)) != NULL
        && (q = PyNumber_TrueDivide(num, d)) != NULL) {
        *out = PyFloat_AsDouble(q);
        rc = PyErr_Occurred() ? -1 : 0;
    }
    Py_XDECREF(a);
    Py_XDECREF(bl);
    Py_XDECREF(d);
    Py_XDECREF(num);
    Py_XDECREF(q);
    return rc;
}

static int
bbr_lt_sampling(CBbr *b, CRateSample *rs, int64_t now)
{
    if (!b->enable_lt_bw)
        return 0;
    if (b->lt_use_bw) {
        if (b->mode == BBR_PROBE_BW && b->round_start) {
            b->lt_rtt_cnt += 1;
            if (b->lt_rtt_cnt > BBR_LT_BW_MAX_RTTS) {
                bbr_lt_reset(b);
                b->full_bw_reached = 0; /* re-probe */
            }
        }
        return 0;
    }
    if (!b->lt_is_sampling) {
        if (rs->newly_lost_segments == 0)
            return 0;
        bbr_lt_reset_interval(b, now);
        b->lt_is_sampling = 1;
    }
    if (rs->is_app_limited) {
        bbr_lt_reset(b);
        return 0;
    }
    if (b->round_start)
        b->lt_rtt_cnt += 1;
    if (b->lt_rtt_cnt < BBR_LT_INTERVAL_MIN_RTTS)
        return 0;
    if (b->lt_rtt_cnt > 4 * BBR_LT_INTERVAL_MIN_RTTS) {
        bbr_lt_reset(b);
        return 0;
    }
    if (rs->newly_lost_segments == 0)
        return 0;

    int64_t lost = b->lost_total - b->lt_last_lost;
    int64_t delivered_segs =
        (b->delivery->delivered_bytes - b->lt_last_delivered) / b->mss;
    if (delivered_segs < 1)
        delivered_segs = 1;
    if ((double)lost / (double)delivered_segs < BBR_LT_LOSS_THRESH)
        return 0;
    int64_t interval_ns = now - b->lt_last_stamp_ns;
    if (interval_ns < bbr_min_rtt_or_msec(b))
        return 0;
    double bw;
    if (py_true_divide(b->delivery->delivered_bytes - b->lt_last_delivered,
                       8 * NS_SEC, interval_ns, &bw) < 0)
        return -1;
    if (b->lt_bw > 0.0) {
        double diff = fabs(bw - b->lt_bw);
        if (diff <= BBR_LT_BW_RATIO * b->lt_bw
            || diff <= (double)BBR_LT_BW_DIFF_BPS) {
            /* two consistent intervals: believe we are being policed */
            b->lt_bw = (bw + b->lt_bw) / 2.0;
            b->lt_use_bw = 1;
            b->pacing_gain = 1.0;
            b->lt_rtt_cnt = 0;
            return 0;
        }
    }
    b->lt_bw = bw;
    bbr_lt_reset_interval(b, now);
    return 0;
}

static int
bbr_update_min_rtt_state(CBbr *b, CRateSample *rs, int64_t now)
{
    int err = 0;
    int filter_expired =
        rs->min_rtt_expired || minrtt_expired_c(b->minrtt, now);
    if (filter_expired && b->mode != BBR_PROBE_RTT
        && b->mode != BBR_STARTUP) {
        b->mode = BBR_PROBE_RTT;
        b->pacing_gain = 1.0;
        b->cwnd_gain = 1.0;
        int64_t cwnd = bbr_get_cwnd(b, &err);
        if (err)
            return -1;
        if (cwnd > b->prior_cwnd)
            b->prior_cwnd = cwnd;
        b->has_probe_rtt_done = 0;
    }
    if (b->mode != BBR_PROBE_RTT)
        return 0;

    int64_t cwnd = bbr_get_cwnd(b, &err);
    if (err)
        return -1;
    if (cwnd > BBR_MIN_TARGET_CWND) {
        if (bbr_set_cwnd(b, BBR_MIN_TARGET_CWND) < 0)
            return -1;
    }
    if (!b->has_probe_rtt_done
        && sb_inflight(b->sb) <= BBR_MIN_TARGET_CWND) {
        b->probe_rtt_done_stamp = now + BBR_PROBE_RTT_DURATION_NS;
        b->has_probe_rtt_done = 1;
        b->probe_rtt_round_done = 0;
        b->next_rtt_delivered = b->delivery->delivered_bytes;
    } else if (b->has_probe_rtt_done) {
        if (b->round_start)
            b->probe_rtt_round_done = 1;
        if (b->probe_rtt_round_done && now >= b->probe_rtt_done_stamp) {
            minrtt_update_c(b->minrtt, bbr_min_rtt_or_msec(b), now);
            /* _exit_probe_rtt */
            cwnd = bbr_get_cwnd(b, &err);
            if (err)
                return -1;
            if (b->prior_cwnd > cwnd) {
                if (bbr_set_cwnd(b, b->prior_cwnd) < 0)
                    return -1;
            }
            b->prior_cwnd = 0;
            if (b->full_bw_reached) {
                bbr_enter_probe_bw(b, now);
            } else {
                b->mode = BBR_STARTUP;
                b->pacing_gain = BBR_HIGH_GAIN;
                b->cwnd_gain = BBR_HIGH_GAIN;
            }
        }
    }
    return 0;
}

static PyObject *
CBbr_cong_control(CBbr *b, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2 || !PyObject_TypeCheck(args[1], &CRateSample_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "cong_control(conn, rate_sample) expects a "
                        "compiled RateSample (mixed kernels?)");
        return NULL;
    }
    CRateSample *rs = (CRateSample *)args[1];
    int64_t now = b->loop->now;
    int err = 0;

    b->lost_total += rs->newly_lost_segments;

    /* _update_round */
    if (rs->prior_delivered >= b->next_rtt_delivered) {
        b->next_rtt_delivered = b->delivery->delivered_bytes;
        b->rtt_cnt += 1;
        b->round_start = 1;
        b->packet_conservation = 0;
    } else {
        b->round_start = 0;
    }

    if (bbr_lt_sampling(b, rs, now) < 0)
        return NULL;

    /* _update_bw */
    if (rs->interval_ns > 0 && rs->delivered_bytes > 0) {
        double sample_bps = (double)(rs->delivered_bytes * 8) * 1e9
                            / (double)rs->interval_ns;
        if (!rs->is_app_limited || sample_bps >= mm_value(b))
            mm_update(b, b->rtt_cnt, sample_bps);
    }

    /* _check_full_bw_reached */
    if (!b->full_bw_reached && b->round_start && !rs->is_app_limited) {
        double bw = mm_value(b);
        if (bw >= b->full_bw * BBR_FULL_BW_THRESHOLD) {
            b->full_bw = bw;
            b->full_bw_cnt = 0;
        } else {
            b->full_bw_cnt += 1;
            if (b->full_bw_cnt >= BBR_FULL_BW_COUNT) {
                b->full_bw_reached = 1;
                if (b->mode == BBR_STARTUP) {
                    b->mode = BBR_DRAIN;
                    b->pacing_gain = BBR_DRAIN_GAIN;
                    b->cwnd_gain = BBR_HIGH_GAIN;
                }
            }
        }
    }

    /* _check_drain */
    if (b->mode == BBR_DRAIN
        && sb_inflight(b->sb) <= bbr_bdp_segments(b, 1.0))
        bbr_enter_probe_bw(b, now);

    /* _update_cycle_phase */
    if (b->mode == BBR_PROBE_BW && bbr_is_next_cycle_phase(b, rs, now)) {
        b->cycle_idx = (b->cycle_idx + 1) % BBR_CYCLE_LEN;
        b->cycle_stamp_ns = now;
        b->pacing_gain =
            b->lt_use_bw ? 1.0 : BBR_GAIN_CYCLE[b->cycle_idx];
    }

    if (bbr_update_min_rtt_state(b, rs, now) < 0)
        return NULL;

    /* _set_pacing_rate */
    double bw = bbr_bw_bps(b);
    if (bw > 0.0) {
        double rate = b->pacing_gain * bw * BBR_PACING_MARGIN;
        if (b->full_bw_reached || rate > b->rate_bps)
            b->rate_bps = rate;
    }

    /* _set_cwnd (PROBE_RTT handled above) */
    if (b->mode != BBR_PROBE_RTT) {
        int64_t acked = rs->newly_acked_segments;
        int64_t target = bbr_target_cwnd(b, b->cwnd_gain, &err);
        if (err)
            return NULL;
        int64_t cwnd = bbr_get_cwnd(b, &err);
        if (err)
            return NULL;
        if (b->packet_conservation) {
            int64_t floor = sb_inflight(b->sb) + acked;
            if (floor > cwnd)
                cwnd = floor;
        } else if (b->full_bw_reached) {
            cwnd += acked;
            if (cwnd > target)
                cwnd = target;
        } else if (cwnd < target
                   || b->delivery->delivered_bytes < b->init_cwnd_bytes) {
            cwnd = cwnd + acked;
        }
        if (bbr_set_cwnd(
                b, cwnd > BBR_MIN_TARGET_CWND ? cwnd : BBR_MIN_TARGET_CWND)
            < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
CBbr_pacing_rate_bps(CBbr *b, PyObject *const *args, Py_ssize_t nargs)
{
    return PyFloat_FromDouble(b->rate_bps);
}

static PyObject *
CBbr_min_tso_segs(CBbr *b, PyObject *const *args, Py_ssize_t nargs)
{
    return PyLong_FromLong(b->rate_bps < 1.2e9 ? 2 : 4);
}

static PyObject *
CBbr_bw_bps_m(CBbr *b, PyObject *Py_UNUSED(ignored))
{
    return PyFloat_FromDouble(bbr_bw_bps(b));
}

static PyObject *
CBbr_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"conn", "enable_lt_bw", NULL};
    PyObject *conn;
    int enable_lt_bw = 1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|p:BbrModel", kwlist,
                                     &conn, &enable_lt_bw))
        return NULL;

    PyObject *sb = PyObject_GetAttrString(conn, "scoreboard");
    PyObject *delivery = NULL, *minrtt = NULL, *loop = NULL, *pacer = NULL;
    PyObject *config = NULL;
    CBbr *self = NULL;
    if (sb == NULL)
        return NULL;
    delivery = PyObject_GetAttrString(conn, "delivery");
    minrtt = PyObject_GetAttrString(conn, "min_rtt");
    loop = PyObject_GetAttrString(conn, "_loop");
    pacer = PyObject_GetAttrString(conn, "pacer");
    config = PyObject_GetAttrString(conn, "config");
    if (delivery == NULL || minrtt == NULL || loop == NULL || pacer == NULL
        || config == NULL)
        goto fail;
    if (!PyObject_TypeCheck(sb, &CScoreboard_Type)
        || !PyObject_TypeCheck(delivery, &CDelivery_Type)
        || !PyObject_TypeCheck(minrtt, &CMinRtt_Type)
        || !PyObject_TypeCheck(loop, &CLoop_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "BbrModel requires a connection built on the "
                        "compiled kernel (scoreboard/delivery/min_rtt/"
                        "loop must be repro._ckernel types)");
        goto fail;
    }

    int64_t mss, flow_id, initial_cwnd, gso_max_bytes;
    {
        PyObject *v;
        if ((v = PyObject_GetAttrString(conn, "mss")) == NULL)
            goto fail;
        int rc = as_i64(v, &mss);
        Py_DECREF(v);
        if (rc < 0)
            goto fail;
        if ((v = PyObject_GetAttrString(conn, "flow_id")) == NULL)
            goto fail;
        rc = as_i64(v, &flow_id);
        Py_DECREF(v);
        if (rc < 0)
            goto fail;
        if ((v = PyObject_GetAttrString(config, "initial_cwnd")) == NULL)
            goto fail;
        rc = as_i64(v, &initial_cwnd);
        Py_DECREF(v);
        if (rc < 0)
            goto fail;
        if ((v = PyObject_GetAttrString(config, "gso_max_bytes")) == NULL)
            goto fail;
        rc = as_i64(v, &gso_max_bytes);
        Py_DECREF(v);
        if (rc < 0)
            goto fail;
    }

    self = (CBbr *)type->tp_alloc(type, 0);
    if (self == NULL)
        goto fail;
    Py_INCREF(conn);
    self->conn = conn;
    self->pacer = pacer;
    self->sb = (CScoreboard *)sb;
    self->delivery = (CDelivery *)delivery;
    self->minrtt = (CMinRtt *)minrtt;
    self->loop = (CLoop *)loop;
    Py_DECREF(config);
    config = NULL;

    self->mss = mss;
    self->flow_id = flow_id;
    self->initial_cwnd = initial_cwnd;
    self->init_cwnd_bytes = initial_cwnd * mss;
    self->gso_max_bytes = gso_max_bytes;
    self->enable_lt_bw = (char)enable_lt_bw;
    self->mode = BBR_STARTUP;
    self->mm_window = BBR_BW_WINDOW_RTTS;
    self->pacing_gain = BBR_HIGH_GAIN;
    self->cwnd_gain = BBR_HIGH_GAIN;

    /* Bbr.init(conn): stamp the cycle, seed the pacing rate from the
     * pre-clamp cwnd, then apply the cwnd floor. */
    self->cycle_stamp_ns = self->loop->now;
    int err = 0;
    int64_t cwnd = bbr_get_cwnd(self, &err);
    if (err)
        goto fail_self;
    int64_t rtt_ns = NS_MSEC; /* conn.srtt_ns or MSEC (None at init) */
    {
        PyObject *srtt = PyObject_GetAttrString(conn, "srtt_ns");
        if (srtt == NULL)
            goto fail_self;
        if (srtt != Py_None) {
            int64_t v;
            int rc = as_i64(srtt, &v);
            Py_DECREF(srtt);
            if (rc < 0)
                goto fail_self;
            if (v)
                rtt_ns = v;
        } else {
            Py_DECREF(srtt);
        }
    }
    double bw;
    if (py_true_divide(cwnd * mss, 8 * NS_SEC, rtt_ns, &bw) < 0)
        goto fail_self;
    self->rate_bps = BBR_HIGH_GAIN * bw * BBR_PACING_MARGIN;
    if (cwnd < BBR_MIN_TARGET_CWND
        && bbr_set_cwnd(self, BBR_MIN_TARGET_CWND) < 0)
        goto fail_self;
    return (PyObject *)self;

fail_self:
    Py_DECREF(self);
    return NULL;
fail:
    Py_XDECREF(sb);
    Py_XDECREF(delivery);
    Py_XDECREF(minrtt);
    Py_XDECREF(loop);
    Py_XDECREF(pacer);
    Py_XDECREF(config);
    Py_XDECREF(self);
    return NULL;
}

static void
CBbr_dealloc(CBbr *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->conn);
    Py_XDECREF(self->pacer);
    Py_XDECREF(self->sb);
    Py_XDECREF(self->delivery);
    Py_XDECREF(self->minrtt);
    Py_XDECREF(self->loop);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
CBbr_traverse(CBbr *self, visitproc visit, void *arg)
{
    Py_VISIT(self->conn);
    Py_VISIT(self->pacer);
    Py_VISIT(self->sb);
    Py_VISIT(self->delivery);
    Py_VISIT(self->minrtt);
    Py_VISIT(self->loop);
    return 0;
}

static int
CBbr_clear(CBbr *self)
{
    Py_CLEAR(self->conn);
    Py_CLEAR(self->pacer);
    Py_CLEAR(self->sb);
    Py_CLEAR(self->delivery);
    Py_CLEAR(self->minrtt);
    Py_CLEAR(self->loop);
    return 0;
}

static PyObject *
CBbr_get_mode(CBbr *self, void *closure)
{
    PyObject *s = bbr_mode_strs[self->mode];
    Py_INCREF(s);
    return s;
}

static PyObject *
CBbr_get_probe_rtt_done_stamp(CBbr *self, void *closure)
{
    if (!self->has_probe_rtt_done)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->probe_rtt_done_stamp);
}

static PyMethodDef CBbr_methods[] = {
    {"cong_control", (PyCFunction)(void (*)(void))CBbr_cong_control,
     METH_FASTCALL, "Per-ACK BBR model update (conn, rate_sample)."},
    {"pacing_rate_bps",
     (PyCFunction)(void (*)(void))CBbr_pacing_rate_bps, METH_FASTCALL,
     "Current pacing rate in bits/s."},
    {"min_tso_segs", (PyCFunction)(void (*)(void))CBbr_min_tso_segs,
     METH_FASTCALL, "Lower bound on autosized super-packet segments."},
    {"bw_bps", (PyCFunction)CBbr_bw_bps_m, METH_NOARGS,
     "Current bandwidth estimate in bits/s."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef CBbr_getset[] = {
    {"mode", (getter)CBbr_get_mode, NULL,
     "BBR state machine mode name.", NULL},
    {"probe_rtt_done_stamp", (getter)CBbr_get_probe_rtt_done_stamp, NULL,
     "PROBE_RTT dwell deadline (None while unarmed).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef CBbr_members[] = {
    {"enable_lt_bw", T_BOOL, offsetof(CBbr, enable_lt_bw), READONLY, NULL},
    {"pacing_gain", T_DOUBLE, offsetof(CBbr, pacing_gain), 0, NULL},
    {"cwnd_gain", T_DOUBLE, offsetof(CBbr, cwnd_gain), 0, NULL},
    {"full_bw", T_DOUBLE, offsetof(CBbr, full_bw), 0, NULL},
    {"full_bw_cnt", T_LONGLONG, offsetof(CBbr, full_bw_cnt), 0, NULL},
    {"full_bw_reached", T_BOOL, offsetof(CBbr, full_bw_reached), 0, NULL},
    {"rtt_cnt", T_LONGLONG, offsetof(CBbr, rtt_cnt), 0, NULL},
    {"next_rtt_delivered", T_LONGLONG,
     offsetof(CBbr, next_rtt_delivered), 0, NULL},
    {"round_start", T_BOOL, offsetof(CBbr, round_start), 0, NULL},
    {"cycle_idx", T_LONGLONG, offsetof(CBbr, cycle_idx), 0, NULL},
    {"cycle_stamp_ns", T_LONGLONG, offsetof(CBbr, cycle_stamp_ns), 0, NULL},
    {"probe_rtt_round_done", T_BOOL,
     offsetof(CBbr, probe_rtt_round_done), 0, NULL},
    {"prior_cwnd", T_LONGLONG, offsetof(CBbr, prior_cwnd), 0, NULL},
    {"packet_conservation", T_BOOL,
     offsetof(CBbr, packet_conservation), 0, NULL},
    {"_rate_bps", T_DOUBLE, offsetof(CBbr, rate_bps), 0, NULL},
    {"lt_is_sampling", T_BOOL, offsetof(CBbr, lt_is_sampling), 0, NULL},
    {"lt_rtt_cnt", T_LONGLONG, offsetof(CBbr, lt_rtt_cnt), 0, NULL},
    {"lt_use_bw", T_BOOL, offsetof(CBbr, lt_use_bw), 0, NULL},
    {"lt_bw", T_DOUBLE, offsetof(CBbr, lt_bw), 0, NULL},
    {"_lost_total", T_LONGLONG, offsetof(CBbr, lost_total), 0, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CBbr_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.BbrModel",
    .tp_basicsize = sizeof(CBbr),
    .tp_dealloc = (destructor)CBbr_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "BBR v1 per-ACK model (compiled kernel).",
    .tp_traverse = (traverseproc)CBbr_traverse,
    .tp_clear = (inquiry)CBbr_clear,
    .tp_methods = CBbr_methods,
    .tp_getset = CBbr_getset,
    .tp_members = CBbr_members,
    .tp_new = CBbr_new,
    .tp_free = PyObject_GC_Del,
};

/* -------------------------------------------------------------- module */

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._ckernel",
    .m_doc = "Compiled simulation-kernel backend: C implementations of the "
             "event loop and the mechanical hot-path components, "
             "bit-identical to the pure-python reference.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if ((s_wire_bytes = PyUnicode_InternFromString("wire_bytes")) == NULL
        || (s_segments = PyUnicode_InternFromString("segments")) == NULL
        || (s_is_ack = PyUnicode_InternFromString("is_ack")) == NULL
        || (s_split_head = PyUnicode_InternFromString("split_head")) == NULL
        || (s_rate_bps = PyUnicode_InternFromString("rate_bps")) == NULL
        || (s_enabled = PyUnicode_InternFromString("enabled")) == NULL
        || (s_send = PyUnicode_InternFromString("send")) == NULL
        || (s_serialization_ns
            = PyUnicode_InternFromString("serialization_ns")) == NULL
        || (s_cwnd = PyUnicode_InternFromString("cwnd")) == NULL)
        return NULL;

    if ((bbr_mode_strs[BBR_STARTUP]
         = PyUnicode_InternFromString("startup")) == NULL
        || (bbr_mode_strs[BBR_DRAIN]
            = PyUnicode_InternFromString("drain")) == NULL
        || (bbr_mode_strs[BBR_PROBE_BW]
            = PyUnicode_InternFromString("probe_bw")) == NULL
        || (bbr_mode_strs[BBR_PROBE_RTT]
            = PyUnicode_InternFromString("probe_rtt")) == NULL)
        return NULL;

    if (PyType_Ready(&CEvent_Type) < 0 || PyType_Ready(&CLoop_Type) < 0
        || PyType_Ready(&CWorkItem_Type) < 0 || PyType_Ready(&CCore_Type) < 0
        || PyType_Ready(&CTimer_Type) < 0 || PyType_Ready(&CLink_Type) < 0
        || PyType_Ready(&CQueue_Type) < 0 || PyType_Ready(&CTxRec_Type) < 0
        || PyType_Ready(&CRateSample_Type) < 0
        || PyType_Ready(&CAckOutcome_Type) < 0
        || PyType_Ready(&CScoreboard_Type) < 0
        || PyType_Ready(&CDelivery_Type) < 0
        || PyType_Ready(&CRtt_Type) < 0 || PyType_Ready(&CMinRtt_Type) < 0
        || PyType_Ready(&CBbr_Type) < 0)
        return NULL;

    /* WorkItem.HIGH / WorkItem.NORMAL class attributes */
    PyObject *zero = PyLong_FromLong(0), *one = PyLong_FromLong(1);
    if (zero == NULL || one == NULL)
        return NULL;
    if (PyDict_SetItemString(CWorkItem_Type.tp_dict, "HIGH", zero) < 0
        || PyDict_SetItemString(CWorkItem_Type.tp_dict, "NORMAL", one) < 0) {
        Py_DECREF(zero);
        Py_DECREF(one);
        return NULL;
    }
    Py_DECREF(zero);
    Py_DECREF(one);

    PyObject *m = PyModule_Create(&ckernel_module);
    if (m == NULL)
        return NULL;

    if (PyModule_AddObjectRef(m, "Event", (PyObject *)&CEvent_Type) < 0
        || PyModule_AddObjectRef(m, "EventLoop", (PyObject *)&CLoop_Type) < 0
        || PyModule_AddObjectRef(m, "WorkItem",
                                 (PyObject *)&CWorkItem_Type) < 0
        || PyModule_AddObjectRef(m, "CpuCore", (PyObject *)&CCore_Type) < 0
        || PyModule_AddObjectRef(m, "Timer", (PyObject *)&CTimer_Type) < 0
        || PyModule_AddObjectRef(m, "Link", (PyObject *)&CLink_Type) < 0
        || PyModule_AddObjectRef(m, "DropTailQueue",
                                 (PyObject *)&CQueue_Type) < 0
        || PyModule_AddObjectRef(m, "TxRecord", (PyObject *)&CTxRec_Type) < 0
        || PyModule_AddObjectRef(m, "RateSample",
                                 (PyObject *)&CRateSample_Type) < 0
        || PyModule_AddObjectRef(m, "AckOutcome",
                                 (PyObject *)&CAckOutcome_Type) < 0
        || PyModule_AddObjectRef(m, "Scoreboard",
                                 (PyObject *)&CScoreboard_Type) < 0
        || PyModule_AddObjectRef(m, "DeliveryRateEstimator",
                                 (PyObject *)&CDelivery_Type) < 0
        || PyModule_AddObjectRef(m, "RttEstimator",
                                 (PyObject *)&CRtt_Type) < 0
        || PyModule_AddObjectRef(m, "MinRttFilter",
                                 (PyObject *)&CMinRtt_Type) < 0
        || PyModule_AddObjectRef(m, "BbrModel", (PyObject *)&CBbr_Type) < 0
        || PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0
#if defined(__clang__)
        || PyModule_AddStringConstant(m, "COMPILER",
                                      "clang " __clang_version__) < 0
#elif defined(__GNUC__)
        || PyModule_AddStringConstant(m, "COMPILER", "gcc " __VERSION__) < 0
#else
        || PyModule_AddStringConstant(m, "COMPILER", "cc") < 0
#endif
    ) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
