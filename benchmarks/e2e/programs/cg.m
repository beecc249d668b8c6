% Conjugate gradient solver for a positive definite system (n = 512).
n = 512;
iters = 12;
rand('seed', 17);
A = rand(n, n) + n * eye(n);      % strictly diagonally dominant
xtrue = ones(n, 1);
b = A * xtrue;
x = zeros(n, 1);
r = b - A * x;
p = r;
rsold = r' * r;
for i = 1:iters
    Ap = A * p;
    alpha = rsold / (p' * Ap);
    x = x + alpha * p;
    r = r - alpha * Ap;
    rsnew = r' * r;
    p = r + (rsnew / rsold) * p;
    rsold = rsnew;
end
resid = sqrt(rsold);
err = max(abs(x - xtrue));
fprintf('cg: n=%d resid=%.3e err=%.3e\n', n, resid, err);
