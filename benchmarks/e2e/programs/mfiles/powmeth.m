function [lam, v] = powmeth(A, iters)
v = ones(size(A, 1), 1);
v = v / norm(v);
lam = 0;
for k = 1:iters
    w = A * v;
    lam = v' * w;
    v = w / norm(w);
end
