module Path = Idbox_vfs.Path

let normalize_cases () =
  let cases =
    [
      ("/", "/");
      ("//", "/");
      ("/a//b", "/a/b");
      ("/a/./b", "/a/b");
      ("/a/b/..", "/a");
      ("/a/../..", "/");
      ("/../a", "/a");
      ("/a/b/../../c", "/c");
      ("/tmp/box_1/home/", "/tmp/box_1/home");
      ("", "/");
      (".", "/");
      ("..", "/");
      ("...", "/...");
      ("/.", "/");
      ("/..", "/");
      ("/...", "/...");
      ("a", "/a");
      ("a/b", "/a/b");
      ("./a", "/a");
      ("../a", "/a");
      ("/a/.", "/a");
      ("/a/..", "/");
      ("/.a", "/.a");
      ("/a.", "/a.");
      ("/..a", "/..a");
      ("/a..", "/a..");
      ("/a/.../b", "/a/.../b");
      ("/already/canonical", "/already/canonical");
    ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Path.normalize input))
    cases

let join_cases () =
  Alcotest.(check string) "relative" "/home/fred/data"
    (Path.join "/home/fred" "data");
  Alcotest.(check string) "absolute wins" "/etc/passwd"
    (Path.join "/home/fred" "/etc/passwd");
  Alcotest.(check string) "dotdot" "/home/out.dat"
    (Path.join "/home/fred" "../out.dat");
  Alcotest.(check string) "from root" "/work" (Path.join "/" "work")

let basename_dirname () =
  Alcotest.(check string) "basename" "c" (Path.basename "/a/b/c");
  Alcotest.(check string) "dirname" "/a/b" (Path.dirname "/a/b/c");
  Alcotest.(check string) "root basename" "/" (Path.basename "/");
  Alcotest.(check string) "root dirname" "/" (Path.dirname "/");
  Alcotest.(check string) "top dirname" "/" (Path.dirname "/a")

let split_cases () =
  (match Path.split "/a/b" with
   | Some (dir, base) ->
     Alcotest.(check string) "dir" "/a" dir;
     Alcotest.(check string) "base" "b" base
   | None -> Alcotest.fail "split failed");
  Alcotest.(check bool) "root split" true (Path.split "/" = None)

let prefixes () =
  Alcotest.(check bool) "prefix" true (Path.is_prefix ~prefix:"/a/b" "/a/b/c");
  Alcotest.(check bool) "equal is prefix" true (Path.is_prefix ~prefix:"/a/b" "/a/b");
  Alcotest.(check bool) "component-wise" false (Path.is_prefix ~prefix:"/a/b" "/a/bc");
  Alcotest.(check bool) "root prefixes all" true (Path.is_prefix ~prefix:"/" "/x");
  Alcotest.(check (option string)) "strip" (Some "/c")
    (Path.strip_prefix ~prefix:"/a/b" "/a/b/c");
  Alcotest.(check (option string)) "strip equal" (Some "/")
    (Path.strip_prefix ~prefix:"/a/b" "/a/b");
  Alcotest.(check (option string)) "strip mismatch" None
    (Path.strip_prefix ~prefix:"/a/b" "/a/x/c")

let components_keep_dotdot () =
  Alcotest.(check (list string)) "dotdot kept" [ "a"; ".."; "b" ]
    (Path.components "/a/../b");
  Alcotest.(check (list string)) "dot dropped" [ "a"; "b" ]
    (Path.components "/a/./b")

let path_gen =
  QCheck.Gen.(
    let comp = oneofl [ "a"; "b"; "cc"; "."; ".."; "home"; "x1" ] in
    map
      (fun comps -> "/" ^ String.concat "/" comps)
      (list_size (int_range 0 6) comp))

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize idempotent" ~count:300 (QCheck.make path_gen)
    (fun p -> String.equal (Path.normalize p) (Path.normalize (Path.normalize p)))

let prop_normalize_no_dots =
  QCheck.Test.make ~name:"normalized paths contain no . or .." ~count:300
    (QCheck.make path_gen) (fun p ->
      List.for_all
        (fun c -> not (String.equal c ".") && not (String.equal c ".."))
        (Path.components (Path.normalize p)))

let prop_join_absolute =
  QCheck.Test.make ~name:"join always absolute" ~count:300
    (QCheck.pair (QCheck.make path_gen) (QCheck.make path_gen))
    (fun (base, p) -> Path.is_absolute (Path.join base p))

(* The split-fold form [normalize] had before it returned canonical
   paths unchanged: the fast path must agree with it on every input. *)
let reference_normalize p =
  let resolve acc = function
    | ".." -> (match acc with [] -> [] | _ :: rest -> rest)
    | c -> c :: acc
  in
  match
    String.split_on_char '/' p
    |> List.filter (fun c -> c <> "" && c <> ".")
    |> List.fold_left resolve [] |> List.rev
  with
  | [] -> "/"
  | comps -> "/" ^ String.concat "/" comps

let prop_normalize_matches_reference =
  let gen =
    QCheck.Gen.(
      let comp = oneofl [ ""; "."; ".."; "..."; "a"; "bc"; ".x"; "x." ] in
      map2
        (fun lead comps -> lead ^ String.concat "/" comps)
        (oneofl [ ""; "/"; "//" ])
        (list_size (int_range 0 6) comp))
  in
  QCheck.Test.make ~name:"normalize = split-fold reference" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen) (fun p ->
      String.equal (reference_normalize p) (Path.normalize p))

let suite =
  [
    Alcotest.test_case "normalize" `Quick normalize_cases;
    Alcotest.test_case "join" `Quick join_cases;
    Alcotest.test_case "basename/dirname" `Quick basename_dirname;
    Alcotest.test_case "split" `Quick split_cases;
    Alcotest.test_case "prefixes" `Quick prefixes;
    Alcotest.test_case "components keep dotdot" `Quick components_keep_dotdot;
    QCheck_alcotest.to_alcotest prop_normalize_idempotent;
    QCheck_alcotest.to_alcotest prop_normalize_no_dots;
    QCheck_alcotest.to_alcotest prop_join_absolute;
    QCheck_alcotest.to_alcotest prop_normalize_matches_reference;
  ]
