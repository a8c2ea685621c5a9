(* Metric names, the model-vs-host table, and output formatting. *)

open Common

(* {1 End-to-end metrics}

   All eight are printed for every run.  The first five are the ones
   BENCHMARK.json bounds; the simulated latencies are deterministic per
   seed (identical on every run of one seed, so a host-time change must
   leave them alone) and [error_ratio] must read 0, so neither kind can
   serve as a bounded host metric. *)

let bounded = [ "ops_per_s"; "op_p50_us"; "op_p99_us"; "setup_s"; "heap_peak_mb" ]

let e2e_metrics (e : e2e) : layer_metric list =
  let pct a p = Samples.percentile_of_sorted a p /. 1000.0 in
  [
    ("ops_per_s", float_of_int e.attempted /. e.window_s, "ops/s");
    ("op_p50_us", pct e.host_sorted 50.0, "us");
    ("op_p99_us", pct e.host_sorted 99.0, "us");
    ("sim_op_p50_us", pct e.sim_sorted 50.0, "us");
    ("sim_op_p99_us", pct e.sim_sorted 99.0, "us");
    ("setup_s", median e.setup_s, "s");
    ("heap_peak_mb", float_of_int (e.heap_words * (Sys.word_size / 8)) /. 1e6, "MB");
    ("error_ratio", ratio e.failed (max 1 e.attempted), "ratio");
  ]

(* {1 Per-layer metrics}

   Each is measured from the run of the workload that drives its layer
   (its owner); a traced run of another workload measures it on a short
   companion run of the owner with the same seed.  The runtime metrics
   and the tracing overhead belong to whichever workload is traced. *)

let owners =
  [
    ("box_meta",
     [ "kernel.direct_ns_per_call"; "kernel.syscalls_per_op"; "box.interpose_ns_per_call";
       "box.trapped_per_op"; "box.delegated_per_op"; "box.channel_bytes_per_op";
       "enforce.bytecode.ns_per_check"; "enforce.cached.ns_per_check";
       "enforce.uncached.ns_per_check"; "enforce.bytecode.words_per_check";
       "enforce.bytecode.hit_ratio"; "acl.ns_per_check"; "acl.memo_evictions" ]);
    ("world_read",
     [ "protocol.encode_ns"; "protocol.decode_ns"; "protocol.bytes_per_op";
       "server.read_ns_per_request"; "client.lease_hit_ratio"; "client.retries_per_op";
       "net.messages_per_op"; "net.bytes_per_op"; "ring.lookup_ns";
       "router.route_cache_hit_ratio"; "router.overhead_ns_per_op" ]);
    ("geo_churn",
     [ "policy_compile.ns_per_compile"; "policy_compile.recompiles_per_mutation";
       "policy_compile.share_of_window"; "wal.append_ns"; "wal.sync_ns";
       "wal.bytes_per_user_byte"; "wal.replay_ms"; "net.messages_per_op"; "net.bytes_per_op";
       "replica.forwards_per_mutation"; "repair.pushes"; "geo.frame_ns_per_record";
       "geo.parse_ns_per_record"; "geo.records_per_segment"; "geo.read_local_ratio" ]);
  ]

let runtime = [ "gc.minor_words_per_op"; "gc.major_collections"; "trace.overhead_pct" ]

let per_layer_names =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.replace seen n ();
        true
      end)
    (List.concat_map snd owners @ runtime)

let runtime_metrics (e : e2e) : layer_metric list =
  [
    ("gc.minor_words_per_op", e.minor_words /. float_of_int (max 1 e.attempted), "words");
    ("gc.major_collections", float_of_int e.major_collections, "count");
    ("trace.overhead_pct", e.trace_overhead_pct, "%");
  ]

(* {1 Model vs host}

   For each pair of paths the Cost model prices, host ns and simulated
   ns side by side; a pair is flagged when the two clocks disagree on
   which path is cheaper. *)

let pairs =
  [
    ("box: direct syscall", "box: trapped syscall");
    ("enforce: bytecode check", "enforce: cached check");
    ("enforce: cached check", "enforce: uncached check");
    ("enforce: bytecode check", "enforce: uncached check");
    ("enforce: bytecode check", "enforce: policy compile (box_meta fs)");
    ("enforce: bytecode check", "policy: compile (geo fs)");
    ("chirp: read op (world_read)", "chirp: mutation op (world_read)");
    ("geo: read op (geo_churn)", "geo: mutation op (geo_churn)");
    ("geo: local secondary read", "geo: proxied secondary read");
  ]

let print_table paths =
  let find n = List.find_opt (fun (m, _, _) -> String.equal m n) paths in
  Printf.printf "\nmodel vs host: each pair, host ns and simulated ns per call\n";
  Printf.printf "  %-38s %-38s %12s %12s %12s %12s  %s\n" "path A" "path B" "host A" "host B"
    "sim A" "sim B" "order";
  let disagreements = ref 0 in
  List.iter
    (fun (a, b) ->
      match (find a, find b) with
      | Some (_, ha, sa), Some (_, hb, sb) ->
        let order x y = compare x y in
        let same = order ha hb = order sa sb in
        if not same then incr disagreements;
        Printf.printf "  %-38s %-38s %12.1f %12.1f %12.1f %12.1f  %s\n" a b ha hb sa sb
          (if same then "agree" else if sa = sb then "DIFFERS (model: equal)" else "DIFFERS")
      | _ -> Printf.printf "  %-38s %-38s  (not measured)\n" a b)
    pairs;
  Printf.printf "  host/model ratios: ";
  List.iter
    (fun (n, h, s) -> if s > 0.0 then Printf.printf "[%s %.2fx] " n (h /. s))
    paths;
  print_newline ();
  !disagreements

(* {1 Output} *)

(* Every digit, as measured; JSON has no NaN or infinity. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_metrics ms =
  String.concat ","
    (List.map
       (fun (n, v, u) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (number v) u)
       ms)

let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed (json_metrics ms)

let print_e2e ~workload ~seed (e : e2e) =
  Printf.printf "workload %s  seed %d  closed loop, 1 client, 1 process\n" workload seed;
  Printf.printf "  window %.3f s  ops %d  host samples %d (%d beyond p99)\n" e.window_s e.attempted
    (Array.length e.host_sorted)
    (Array.length e.host_sorted / 100);
  Printf.printf "  setups %s s\n" (String.concat ", " (List.map (Printf.sprintf "%.3f") e.setup_s));
  List.iter (fun (n, v, u) -> Printf.printf "  %-16s %16.3f %s\n" n v u) (e2e_metrics e);
  Printf.printf "  verdict digest   %s (first %d ops)\n" e.digest (Array.length e.sim_sorted);
  if e.failed = 0 then Printf.printf "  outputs check    ok\n"
  else begin
    Printf.printf "  outputs check    FAILED: %d of %d\n" e.failed e.attempted;
    List.iter (Printf.printf "    %s\n") e.notes
  end;
  Printf.printf "report: {\"workload\":%S,\"seed\":%d,\"digest\":%S,\"metrics\":{%s}}\n" workload
    seed e.digest (json_metrics (e2e_metrics e))
