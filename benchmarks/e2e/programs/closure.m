% Transitive closure of an n x n adjacency matrix by repeated squaring.
n = 160;
rounds = 8;
rand('seed', 29);
A = rand(n, n) < 3.0 / n;    % random digraph, avg degree 3.0
R = (A + eye(n)) > 0;
for k = 1:rounds
    R = R * R;                        % O(n^3) matrix multiplication
    R = R > 0;
end
reach = sum(sum(R));
fprintf('closure: n=%d reachable=%d\n', n, reach);
