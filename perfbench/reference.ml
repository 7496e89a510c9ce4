(* Reference answers, recorded with [main.exe --record]. *)

type enumeration =
  | Complete of { solutions : int; calls : int; digest : string }
  | Capped of int

type cell = {
  label : string;
  m : int;
  union : int;
  min_size : int;
  cov : enumeration option;
  bsat : enumeration option;
}

type served = {
  circuit : string;
  errors : int;
  seed : int;
  tests : int;
  solutions : int;
  digest : string;
}
let cells : cell list =
  [
    { label = "g1423"; m = 4; union = 42; min_size = 2;
      cov = Some (Complete { solutions = 534; calls = 0; digest = "f629bc06a57652fd116af67704434180" });
      bsat = Some (Complete { solutions = 808; calls = 812; digest = "80e223f5d7ba3ab67dc5b5b054290ec2" }) };
    { label = "g1423"; m = 8; union = 45; min_size = 2;
      cov = Some (Complete { solutions = 1001; calls = 0; digest = "c658700b09095a45d90512db2a7714b5" });
      bsat = Some (Complete { solutions = 1073; calls = 1077; digest = "369da42a645f5bf059b675b466c6980f" }) };
    { label = "g1423"; m = 16; union = 46; min_size = 2;
      cov = Some (Complete { solutions = 1115; calls = 0; digest = "b4b8e7748701476a769770e828d26c1e" });
      bsat = Some (Complete { solutions = 1667; calls = 1671; digest = "401149f32ee6948f6095df819a42394e" }) };
    { label = "g38417"; m = 16; union = 970; min_size = 1;
      cov = None;
      bsat = Some (Capped 4) };
    { label = "g6669"; m = 32; union = 206; min_size = 2;
      cov = Some (Capped 2000);
      bsat = None };
  ]

let served : served list =
  [
    { circuit = "g1423"; errors = 1; seed = 1; tests = 4;
      solutions = 9; digest = "63547d7ac7fd0f81b12d281c1a845e80" };
    { circuit = "g1423"; errors = 3; seed = 1; tests = 4;
      solutions = 12; digest = "a6319e799de92055d8236d740fb2e25b" };
    { circuit = "g1423"; errors = 3; seed = 2; tests = 4;
      solutions = 36; digest = "ca19c409fbd97d045e4e2621f49633ba" };
    { circuit = "g1423"; errors = 3; seed = 2; tests = 8;
      solutions = 63; digest = "d1f480ecfbee1045f4a4a344914a299a" };
    { circuit = "g1423"; errors = 3; seed = 3; tests = 4;
      solutions = 134; digest = "e0e6ef8783d9e8c05afa2757ace79871" };
    { circuit = "g1423"; errors = 3; seed = 3; tests = 8;
      solutions = 50; digest = "1b328a1ab2ad698e3a725f11a0867e17" };
    { circuit = "g1423"; errors = 3; seed = 4; tests = 4;
      solutions = 546; digest = "5955209e1ac6bdbf7914a35b5beaa3ee" };
    { circuit = "g38417"; errors = 1; seed = 7; tests = 4;
      solutions = 2; digest = "765509d712c2569a23b71d205d818b3b" };
    { circuit = "g38417"; errors = 1; seed = 7; tests = 8;
      solutions = 2; digest = "765509d712c2569a23b71d205d818b3b" };
    { circuit = "g38417"; errors = 1; seed = 9; tests = 4;
      solutions = 6; digest = "70265b45c18ca1c129cf5c5f6ab5d8ce" };
    { circuit = "g38417"; errors = 1; seed = 10; tests = 4;
      solutions = 31; digest = "e3d51d06bddb124fd47c70a53e3832e7" };
    { circuit = "g38417"; errors = 1; seed = 10; tests = 8;
      solutions = 15; digest = "31e789545a651c4199a325ae7b0f8cc3" };
    { circuit = "g6669"; errors = 1; seed = 3; tests = 4;
      solutions = 16; digest = "f42e278ced32e986b8087204b031e611" };
    { circuit = "g6669"; errors = 2; seed = 4; tests = 4;
      solutions = 94; digest = "7e1161ae85ce2a133eac16a93244447c" };
    { circuit = "g6669"; errors = 2; seed = 7; tests = 4;
      solutions = 125; digest = "5eeda3460584fc73c2867a9a5cc76dba" };
    { circuit = "g6669"; errors = 2; seed = 7; tests = 8;
      solutions = 63; digest = "c447d4ec112cce8e2b761beccccc6abb" };
    { circuit = "g6669"; errors = 2; seed = 8; tests = 4;
      solutions = 39; digest = "a5957192b6e22f7b9b93b8890add9765" };
    { circuit = "g6669"; errors = 2; seed = 8; tests = 8;
      solutions = 9; digest = "003988e2d5c13331bffba16e73c45854" };
  ]
