(* The host-time benchmark's command line:

     main.exe --workload box_meta|world_read|geo_churn --seed N
              --seconds S --trace 0|1 [--plant-wrong-expectation]

   Prints a readable report, then as its last line one JSON object:
   the bounded end-to-end metrics (--trace 0) or every per-layer metric
   (--trace 1).  Exits 1 when any output differs from its expectation. *)

open Perfbench
open Common

type family = { e2e : e2e; probes : unit -> layer_metric list * (string * float * float) list }

let families = [ "box_meta"; "world_read"; "geo_churn" ]

(* A companion is a short run of another workload, made in a traced run
   to measure the layers that workload drives. *)
let run_family ~companion ~plant ~seed ~seconds ~traced = function
  | "box_meta" ->
    let p =
      if companion then { Box_meta.default with floor = 20_000; setups = 1 } else Box_meta.default
    in
    let r = Box_meta.run ~p ~plant ~seed ~seconds ~traced () in
    { e2e = r.Box_meta.e2e; probes = (fun () -> Box_meta.probes r) }
  | "world_read" ->
    let p =
      if companion then { World_read.default with floor = 5_000; setups = 1 }
      else World_read.default
    in
    let r = World_read.run ~p ~plant ~seed ~seconds ~traced () in
    { e2e = r.World_read.e2e; probes = (fun () -> World_read.probes r) }
  | "geo_churn" ->
    let p =
      if companion then { Geo_churn.default with floor = 150; setups = 1 } else Geo_churn.default
    in
    let r = Geo_churn.run ~p ~plant ~seed ~seconds ~traced () in
    { e2e = r.Geo_churn.e2e; probes = (fun () -> Geo_churn.probes r) }
  | w -> invalid_arg ("unknown workload " ^ w)

let companion_seconds = 1.0

let traced_run ~workload ~seed ~seconds ~plant =
  let main = run_family ~companion:false ~plant ~seed ~seconds ~traced:true workload in
  Report.print_e2e ~workload ~seed main.e2e;
  let own, own_paths = main.probes () in
  let others =
    List.filter_map
      (fun f ->
        if String.equal f workload then None
        else
          let c = run_family ~companion:true ~plant ~seed ~seconds:companion_seconds ~traced:true f in
          let ms, paths = c.probes () in
          Some (f, c.e2e, ms, paths))
      families
  in
  let sources = ((workload, own) :: List.map (fun (f, _, ms, _) -> (f, ms)) others) in
  let owned_by f name =
    match List.assoc_opt f Report.owners with Some l -> List.mem name l | None -> false
  in
  let pick name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) (Report.runtime_metrics main.e2e) with
    | Some m -> Some (workload, m)
    | None ->
      List.find_map
        (fun (f, ms) ->
          if owned_by f name then
            Option.map (fun m -> (f, m)) (List.find_opt (fun (n, _, _) -> String.equal n name) ms)
          else None)
        sources
  in
  Printf.printf "\nper-layer metrics (measured on)\n";
  let metrics =
    List.filter_map
      (fun name ->
        match pick name with
        | Some (f, ((n, v, u) as m)) ->
          Printf.printf "  %-40s %18.3f %-6s %s\n" n v u f;
          Some m
        | None ->
          Printf.printf "  %-40s not measured\n" name;
          None)
      Report.per_layer_names
  in
  let paths = own_paths @ List.concat_map (fun (_, _, _, p) -> p) others in
  let disagreements = Report.print_table paths in
  Printf.printf "  pairs whose order differs: %d\n" disagreements;
  List.iter
    (fun (f, (e : e2e), _, _) ->
      if e.failed > 0 then begin
        Printf.printf "companion %s: outputs check FAILED: %d\n" f e.failed;
        List.iter (Printf.printf "    %s\n") e.notes
      end)
    others;
  let failed = List.fold_left (fun acc (_, (e : e2e), _, _) -> acc + e.failed) main.e2e.failed others in
  (failed, main.e2e.attempted, metrics)

let untraced_run ~workload ~seed ~seconds ~plant =
  let r = run_family ~companion:false ~plant ~seed ~seconds ~traced:false workload in
  Report.print_e2e ~workload ~seed r.e2e;
  let metrics =
    List.filter (fun (n, _, _) -> List.mem n Report.bounded) (Report.e2e_metrics r.e2e)
  in
  (r.e2e.failed, r.e2e.attempted, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let plant = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " box_meta, world_read or geo_churn");
      ("--seed", Arg.Set_int seed, " the workload seed");
      ("--seconds", Arg.Set_float seconds, " host seconds the window measures");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics from a traced run");
      ("--plant-wrong-expectation", Arg.Set plant,
       " corrupt one expectation (the check must fail)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload families) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let failed, attempted, metrics =
    try
      (if !trace = 1 then traced_run else untraced_run)
        ~workload:!workload ~seed:!seed ~seconds:!seconds ~plant:!plant
    with e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 1
  in
  let correct = failed = 0 in
  print_endline (Report.result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1
