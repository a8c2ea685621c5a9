(* The benchmark's own checks, on tiny runs: a planted wrong expectation
   must fail every workload's outputs check, a clean run must pass, and
   one seed must reproduce its simulated metrics and verdict digest. *)

open Perfbench
open Common

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let tiny_box = { Box_meta.dirs = 16; small_files = 2; items = 256; floor = 2_000; setups = 1 }

let tiny_world =
  { World_read.dirs = 4; files_per_dir = 8; items = 256; floor = 400; setups = 1 }

let tiny_geo = { Geo_churn.default with dirs = 2; slots = 4; floor = 60; setups = 1 }

let box ?(plant = false) seed =
  (Box_meta.run ~p:tiny_box ~plant ~seed ~seconds:0.0 ~traced:false ()).Box_meta.e2e

let world ?(plant = false) seed =
  (World_read.run ~p:tiny_world ~plant ~seed ~seconds:0.0 ~traced:false ()).World_read.e2e

let geo ?(plant = false) seed =
  (Geo_churn.run ~p:tiny_geo ~plant ~seed ~seconds:0.0 ~traced:false ()).Geo_churn.e2e

let sim_p e p = Samples.percentile_of_sorted e.sim_sorted p

let () =
  List.iter
    (fun (name, run) ->
      let clean = run ~plant:false 7 and planted = run ~plant:true 7 in
      expect (name ^ ": clean run passes the outputs check") (clean.failed = 0);
      expect (name ^ ": planted wrong expectation fails the check") (planted.failed > 0))
    [
      ("box_meta", fun ~plant s -> box ~plant s);
      ("world_read", fun ~plant s -> world ~plant s);
      ("geo_churn", fun ~plant s -> geo ~plant s);
    ];
  List.iter
    (fun (name, run) ->
      let a = run 3 and b = run 3 and c = run 4 in
      expect (name ^ ": one seed, one verdict digest") (String.equal a.digest b.digest);
      expect (name ^ ": one seed, identical simulated p50/p99")
        (sim_p a 50.0 = sim_p b 50.0 && sim_p a 99.0 = sim_p b 99.0);
      expect (name ^ ": another seed changes the op stream") (not (String.equal a.digest c.digest)))
    [ ("box_meta", fun s -> box s); ("world_read", fun s -> world s); ("geo_churn", fun s -> geo s) ];
  (* A bounded-stale read may return the version current when the
     region last caught up, or a later one — never an older one. *)
  let m =
    {
      Geo_churn.versions = Hashtbl.create 4;
      slot_paths = [| "/g00/s00" |];
      live = 0;
      target = 1;
      acls = Hashtbl.create 1;
      tmp = None;
      tmp_seq = 0;
    }
  in
  Geo_churn.set_version m "/g00/s00" ~at:10L (Some "v1");
  Geo_churn.set_version m "/g00/s00" ~at:20L (Some "v2");
  Geo_churn.set_version m "/g00/s00" ~at:30L (Some "v3");
  let ok_at fresh_at v = List.mem v (Geo_churn.admissible m "/g00/s00" ~fresh_at) in
  expect "staleness: the version current at catch-up is admissible" (ok_at 25L (Some "v2"));
  expect "staleness: a later version is admissible" (ok_at 25L (Some "v3"));
  expect "staleness: an older version is not" (not (ok_at 25L (Some "v1")));
  expect "staleness: absence before creation only" (ok_at 5L None && not (ok_at 15L None));
  (* BENCHMARK.json names exactly the metrics the benchmark prints. *)
  let spec = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let declared name =
    let needle = Printf.sprintf "\"name\": %S" name in
    let n = String.length needle in
    let rec go i = i + n <= String.length spec && (String.sub spec i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun name -> expect ("BENCHMARK.json declares " ^ name) (declared name))
    (Report.bounded @ Report.per_layer_names);
  if !failures > 0 then exit 1
