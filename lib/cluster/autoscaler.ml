module Clock = Idbox_kernel.Clock
module Trace = Idbox_kernel.Trace
module Network = Idbox_net.Network

type decision = Grow of string | Shrink of string | Hold of string

let decision_name = function
  | Grow host -> "grow:" ^ host
  | Shrink name -> "shrink:" ^ name
  | Hold why -> "hold:" ^ why

type t = {
  a_world : World.t;
  a_health : Health.t;
  a_sample : string -> Health.sample;
  a_hosts : string list;
  a_min : int;
  a_max : int;
  a_interval_ns : int64;
  a_cooldown_ns : int64;
  a_grow_below : int;
  a_shrink_above : int;
  a_trace : Trace.ring option;
  mutable a_next_due : int64;
  mutable a_cooldown_until : int64;
  mutable a_history : decision list;  (* newest first *)
  mutable a_grows : int;
  mutable a_shrinks : int;
}

let short_name host =
  match String.index_opt host '.' with
  | Some i -> String.sub host 0 i
  | None -> host

let create ?health_config ?trace ?sample ?(min_nodes = 1) ?max_nodes
    ?(interval_ns = 5_000_000_000L) ?(cooldown_ns = 30_000_000_000L)
    ?(grow_below = 55) ?(shrink_above = 85) ~hosts world =
  let clock = World.clock world in
  let metrics = Network.metrics (World.net world) in
  let health =
    Health.create ?config:health_config ?trace ~clock ~metrics ()
  in
  let sample =
    match sample with
    | Some f -> f
    | None -> fun name -> Health.sample_server (World.server world name)
  in
  {
    a_world = world;
    a_health = health;
    a_sample = sample;
    a_hosts = hosts;
    a_min = max 1 min_nodes;
    a_max =
      (match max_nodes with
       | Some m -> max (max 1 min_nodes) m
       | None -> max (max 1 min_nodes) (List.length hosts));
    a_interval_ns = Int64.max 1L interval_ns;
    a_cooldown_ns = Int64.max 0L cooldown_ns;
    a_grow_below = grow_below;
    a_shrink_above = shrink_above;
    a_trace = trace;
    a_next_due = Clock.now clock;
    a_cooldown_until = 0L;
    a_history = [];
    a_grows = 0;
    a_shrinks = 0;
  }

let health t = t.a_health
let decisions t = List.rev t.a_history
let grows t = t.a_grows
let shrinks t = t.a_shrinks

let metric t name = Network.count (World.net t.a_world) name

let span t ~node ~verdict =
  match t.a_trace with
  | None -> ()
  | Some ring ->
    Trace.span ring ~time:(Clock.now (World.clock t.a_world)) ~pid:0
      ~identity:node ~syscall:"cluster.scale" ~verdict ~cost_ns:0L

(* The first pool host whose member name is not already in the world:
   the pool is ordered, so growth is deterministic. *)
let free_host t members =
  List.find_opt (fun h -> not (List.mem (short_name h) members)) t.a_hosts

(* The member with the lowest smoothed score, ties broken by name —
   shrinking always removes the node contributing least. *)
let victim t members =
  List.map (fun name -> (Health.score t.a_health name, name)) members
  |> List.sort compare
  |> function [] -> None | (_, name) :: _ -> Some name

let grow t now host =
  match World.add_node t.a_world ~host with
  | Error e ->
    metric t "cluster.scale.error";
    Hold ("add failed: " ^ e)
  | Ok () ->
    World.settle t.a_world;
    metric t "cluster.scale.up";
    span t ~node:(short_name host) ~verdict:"up";
    t.a_cooldown_until <- Int64.add now t.a_cooldown_ns;
    t.a_grows <- t.a_grows + 1;
    Grow host

let shrink t now name =
  match World.remove_node t.a_world name with
  | Error e ->
    metric t "cluster.scale.error";
    Hold ("remove failed: " ^ e)
  | Ok () ->
    Health.forget t.a_health name;
    World.settle t.a_world;
    metric t "cluster.scale.down";
    span t ~node:name ~verdict:"down";
    t.a_cooldown_until <- Int64.add now t.a_cooldown_ns;
    t.a_shrinks <- t.a_shrinks + 1;
    Shrink name

let tick t =
  let now = Clock.now (World.clock t.a_world) in
  if Int64.compare now t.a_next_due < 0 then None
  else begin
    t.a_next_due <- Int64.add now t.a_interval_ns;
    let members = World.members t.a_world in
    List.iter
      (fun name ->
        ignore (Health.observe t.a_health ~name (t.a_sample name)))
      members;
    (* Departed nodes must not drag the aggregate around forever. *)
    List.iter
      (fun (name, _, _) ->
        if not (List.mem name members) then Health.forget t.a_health name)
      (Health.nodes t.a_health);
    let agg = Health.aggregate t.a_health in
    let n = List.length members in
    let cooling = Int64.compare now t.a_cooldown_until < 0 in
    let d =
      if agg < t.a_grow_below then begin
        (* The cluster is hurting: add capacity — unless a recent
           action is still settling (cooldown), the envelope forbids
           it, or the host pool is dry. *)
        if cooling then begin
          metric t "cluster.scale.hold";
          Hold "cooldown"
        end
        else if n >= t.a_max then begin
          metric t "cluster.scale.clamp";
          Hold "at max envelope"
        end
        else
          match free_host t members with
          | None ->
            metric t "cluster.scale.clamp";
            Hold "host pool exhausted"
          | Some host -> grow t now host
      end
      else if agg > t.a_shrink_above then begin
        (* Comfortably healthy: give capacity back, lowest score
           first, never below the min envelope. *)
        if n <= t.a_min then begin
          metric t "cluster.scale.clamp";
          Hold "at min envelope"
        end
        else if cooling then begin
          metric t "cluster.scale.hold";
          Hold "cooldown"
        end
        else
          match victim t members with
          | None -> Hold "no members"
          | Some name -> shrink t now name
      end
      else Hold "steady"
    in
    t.a_history <- d :: t.a_history;
    Some d
  end
