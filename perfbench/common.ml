(* Shared pieces of the host-time benchmark: the host clock, latency
   recorders kept outside the OCaml heap, the outputs check, seeded
   input generators and the result record every workload returns. *)

module Metrics = Idbox_kernel.Metrics
module Errno = Idbox_vfs.Errno

(* {1 Host clock} *)

(* CLOCK_MONOTONIC in nanoseconds; a [noalloc] external, so reading it
   around an operation perturbs neither the heap nor the op. *)
let now_ns () = Monotonic_clock.now ()
let elapsed_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let elapsed_s t0 = elapsed_ns t0 /. 1e9

(* Repeat [f] (one pass over [per_pass] inputs) until at least [min_s]
   host seconds have gone by, after one untimed warm pass; host ns per
   input. *)
let per_item ~min_s ~per_pass f =
  f ();
  let t0 = now_ns () in
  let passes = ref 0 in
  while !passes = 0 || elapsed_s t0 < min_s do
    f ();
    incr passes
  done;
  elapsed_ns t0 /. float_of_int (!passes * max 1 per_pass)

(* Time [f] once, in host nanoseconds. *)
let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (elapsed_ns t0, r)

(* {1 Latency samples}

   One float per operation, in a Bigarray so the samples never count
   towards [heap_peak_mb]: that metric is about the program's memory,
   not the benchmark's bookkeeping. *)
module Samples = struct
  open Bigarray

  type t = {
    mutable buf : (float, float64_elt, c_layout) Array1.t;
    mutable n : int;
    limit : int;  (** Samples past this count are dropped. *)
  }

  let create ?(limit = max_int) () =
    { buf = Array1.create float64 c_layout 4096; n = 0; limit }

  let add t v =
    if t.n < t.limit then begin
      if t.n = Array1.dim t.buf then begin
        let bigger = Array1.create float64 c_layout (2 * t.n) in
        Array1.blit t.buf (Array1.sub bigger 0 t.n);
        t.buf <- bigger
      end;
      Array1.unsafe_set t.buf t.n v;
      t.n <- t.n + 1
    end

  let sorted t =
    let a = Array.init t.n (fun i -> Array1.unsafe_get t.buf i) in
    Array.stable_sort Float.compare a;
    a

  (* Nearest rank: the smallest sample with at least [p]% of the
     samples at or below it. *)
  let percentile_of_sorted a p =
    let n = Array.length a in
    if n = 0 then 0.0
    else
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))
end

(* {1 Outputs check}

   Every workload compares each operation's outcome with an expectation
   it derived independently of the code under test.  A mismatch counts
   the operation as failed and keeps the first few descriptions for the
   report.  The verdict transcript (one short token per operation, for
   the first [floor] operations of the deterministic stream) is hashed
   into a digest: two runs with one seed must print the same digest. *)
module Check = struct
  type t = {
    mutable failed : int;
    mutable notes : string list;
    transcript : Buffer.t;
    mutable recorded : int;
    floor : int;
  }

  let create ~floor =
    { failed = 0; notes = []; transcript = Buffer.create 4096; recorded = 0; floor }

  let fail t msg =
    t.failed <- t.failed + 1;
    if List.length t.notes < 8 then t.notes <- msg :: t.notes

  let expect t ok msg = if not ok then fail t (Lazy.force msg)

  (* One transcript entry: which operation, and its verdict. *)
  let record t ~op token =
    if t.recorded < t.floor then begin
      Buffer.add_string t.transcript op;
      Buffer.add_char t.transcript ' ';
      Buffer.add_string t.transcript token;
      Buffer.add_char t.transcript ';';
      t.recorded <- t.recorded + 1
    end

  let digest t = Digest.to_hex (Digest.string (Buffer.contents t.transcript))
  let notes t = List.rev t.notes
end

let errno_token = function Ok _ -> "ok" | Error e -> Errno.to_string e

(* {1 Seeded inputs} *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]

(* A Zipf(s) sampler over [0, n): rank 0 is the most popular. *)
let zipf ~s n =
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cum.(i) <- !acc
  done;
  let total = !acc in
  fun st ->
    let u = Random.State.float st total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* Printable bytes, deterministic in the generator state. *)
let payload st len =
  String.init len (fun _ -> Char.chr (33 + Random.State.int st 94))

(* Fisher-Yates shuffle of an array copy. *)
let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let ok_or_fail ctx = function
  | Ok v -> v
  | Error e -> failwith (ctx ^ ": " ^ Errno.message e)

let ok_or_fail_msg ctx = function
  | Ok v -> v
  | Error m -> failwith (ctx ^ ": " ^ m)

let counter reg name = Metrics.counter_value_of reg name

let ratio a b = if b <= 0 then 0.0 else float_of_int a /. float_of_int b

(* Median of a non-empty float list. *)
let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* {1 Window bookkeeping}

   The timed window is a closed loop: one client, the next operation
   starts when the previous one returns.  It runs for the requested
   host seconds {e and} at least [floor] operations, so the simulated
   metrics and the verdict digest (both taken over the first [floor]
   operations) are identical across runs of one seed.  In a traced run
   the window alternates untraced and traced slices; the traced slices
   record the inputs the per-layer probes replay, and the latency gap
   between the two kinds of slice is the tracing overhead. *)
module Window = struct
  type t = {
    mutable deadline : int64;
    floor : int;
    traced : bool;
    slice_ns : int64;
    start : int64;
    mutable ops : int;
    host : Samples.t;
    sim : Samples.t;
    mutable traced_ns : float;
    mutable traced_ops : int;
    mutable plain_ns : float;
    mutable plain_ops : int;
    mutable heap_words : int;  (** [Gc.top_heap_words] once [floor] ops are done. *)
  }

  let slice_ns = 100_000_000L

  let start ?(slice_ns = slice_ns) ~seconds ~floor ~traced () =
    let start = now_ns () in
    {
      deadline = Int64.add start (Int64.of_float (seconds *. 1e9));
      floor;
      traced;
      slice_ns;
      start;
      ops = 0;
      host = Samples.create ();
      sim = Samples.create ~limit:floor ();
      traced_ns = 0.0;
      traced_ops = 0;
      plain_ns = 0.0;
      plain_ops = 0;
      heap_words = 0;
    }

  (* Run [f] with the clock stopped: the deadline moves out by its
     duration, and the caller subtracts the returned seconds from the
     window. *)
  let pause t f =
    let t0 = now_ns () in
    f ();
    let dt = Int64.sub (now_ns ()) t0 in
    t.deadline <- Int64.add t.deadline dt;
    Int64.to_float dt /. 1e9

  let over t = t.ops >= t.floor && Int64.compare (now_ns ()) t.deadline >= 0

  (* Whether the operation about to start falls in a traced slice. *)
  let tracing t =
    t.traced
    && Int64.rem (Int64.div (Int64.sub (now_ns ()) t.start) t.slice_ns) 2L = 1L

  let note t ~traced ~host_ns ~sim_ns =
    t.ops <- t.ops + 1;
    if t.ops = t.floor then t.heap_words <- (Gc.quick_stat ()).Gc.top_heap_words;
    Samples.add t.host host_ns;
    Samples.add t.sim sim_ns;
    if traced then begin
      t.traced_ns <- t.traced_ns +. host_ns;
      t.traced_ops <- t.traced_ops + 1
    end
    else begin
      t.plain_ns <- t.plain_ns +. host_ns;
      t.plain_ops <- t.plain_ops + 1
    end
end

(* {1 What a workload run returns} *)

type e2e = {
  attempted : int;
  failed : int;
  window_s : float;
  host_sorted : float array;  (** Per-op host ns, sorted. *)
  sim_sorted : float array;  (** Per-op simulated ns (first [floor]), sorted. *)
  setup_s : float list;  (** One entry per repeated set-up. *)
  heap_words : int;
  digest : string;
  notes : string list;
  minor_words : float;  (** Minor-heap words allocated in the window. *)
  major_collections : int;  (** Major collections in the window. *)
  trace_overhead_pct : float;
      (** Traced-slice mean latency over untraced-slice mean, minus 1,
          in percent; [0.] in an untraced run. *)
}

(* Close a window.  The heap peak is the one read after [floor] ops — a
   fixed amount of work, so a faster run that retains more history (a
   longer geo log, say) does not read as a memory regression. *)
let finish_e2e (w : Window.t) ~check ~setup_s ~window_s ~gc0 =
  let gc1 = Gc.quick_stat () in
  let overhead =
    if w.Window.traced && w.traced_ops > 0 && w.plain_ops > 0 then
      100.0
      *. ((w.traced_ns /. float_of_int w.traced_ops)
          /. (w.plain_ns /. float_of_int w.plain_ops)
         -. 1.0)
    else 0.0
  in
  {
    attempted = w.ops;
    failed = check.Check.failed;
    window_s;
    host_sorted = Samples.sorted w.host;
    sim_sorted = Samples.sorted w.sim;
    setup_s;
    heap_words = w.Window.heap_words;
    digest = Check.digest check;
    notes = Check.notes check;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    trace_overhead_pct = overhead;
  }

(* Run [setup] [n] times (each returns its host seconds and what it
   built); keep the last build.  Earlier builds are garbage before the
   window starts, so they do not inflate the heap it measures. *)
let repeat_setups n setup =
  let timings = ref [] and last = ref None in
  for _ = 1 to n do
    last := None;
    let s, built = setup () in
    timings := s :: !timings;
    last := Some built
  done;
  (List.rev !timings, Option.get !last)

(* A per-layer measurement: name, value, unit. *)
type layer_metric = string * float * string
